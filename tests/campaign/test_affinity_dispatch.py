"""Configuration-affinity dispatch of the campaign runner.

Runs that share construction artifacts are dispatched consecutively and
re-emitted in expansion order.  That the build cache and this ordering
leave every record unchanged is checked against literal digests in
``test_pinned_digests.py``.
"""

from __future__ import annotations

from repro.campaign.runner import AFFINITY_REORDER_LIMIT, CampaignRunner
from repro.campaign.spec import Sweep, construction_affinity_key


class TestAffinityDispatch:
    def test_identity_order_skips_reordering(self):
        """Single-configuration sweeps (seeds innermost) are already affine."""
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma"),
            grid={"delta": [10.0, 25.0]},
            fixed={"packets_per_node": 3, "warmup": 0.5},
            seeds=(0, 1),
        )
        runner = CampaignRunner(jobs=4)
        axes = sweep.axes
        deltas = [
            (s.mac, s.propagation, s.seed, {name: s.params[name] for name in axes})
            for s in sweep
        ]
        # delta is a traffic axis -> not construction-relevant -> identity.
        assert runner._affinity_order(sweep, deltas) is None

    def test_construction_axis_groups_runs(self):
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma", "unslotted-csma"),
            grid={"link_distance": [50.0, 45.0]},
            fixed={"packets_per_node": 3, "warmup": 0.5},
            seeds=(0, 1),
        )
        runner = CampaignRunner(jobs=4)
        axes = sweep.axes
        scenarios = sweep.scenarios()
        deltas = [
            (s.mac, s.propagation, s.seed, {name: s.params[name] for name in axes})
            for s in scenarios
        ]
        order = runner._affinity_order(sweep, deltas)
        assert order is not None
        dispatched = [scenarios[i].params["link_distance"] for i in order]
        # Runs sharing construction are consecutive after reordering: the
        # two link_distance groups meet at exactly one boundary.
        changes = sum(1 for a, b in zip(dispatched, dispatched[1:]) if a != b)
        assert changes == 1
        # The stable sort keeps expansion order within each group.
        first = [scenarios[i] for i in order][: len(scenarios) // 2]
        assert [(s.mac, s.seed) for s in first] == [
            ("qma", 0), ("qma", 1), ("unslotted-csma", 0), ("unslotted-csma", 1),
        ]

    def test_reorder_restores_expansion_order(self):
        order = [2, 0, 3, 1, 4]
        results = [f"record-{index}" for index in order]  # dispatch order
        restored = list(CampaignRunner._reorder(iter(results), order))
        assert restored == ["record-0", "record-1", "record-2", "record-3", "record-4"]

    def test_seeded_construction_groups_by_seed_across_macs(self):
        key_a = construction_affinity_key(
            "hidden-node", "fading", 3, {"packets_per_node": 3}
        )
        key_b = construction_affinity_key(
            "hidden-node", "fading", 3, {"packets_per_node": 3}
        )
        key_c = construction_affinity_key(
            "hidden-node", "fading", 4, {"packets_per_node": 3}
        )
        assert key_a == key_b
        assert key_a != key_c
        pinned = {"propagation_params": {"seed": 7}}
        assert construction_affinity_key(
            "hidden-node", "fading", 3, pinned
        ) == construction_affinity_key("hidden-node", "fading", 4, pinned)

    def test_large_sweeps_fall_back_to_lazy_dispatch(self):
        assert AFFINITY_REORDER_LIMIT >= 10_000  # documented constant exists
