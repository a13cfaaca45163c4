"""Seed grouping for the lockstep batch executor.

That batched runs reproduce every record is checked against literal
digests in ``test_pinned_digests.py``.
"""

from __future__ import annotations

from repro.campaign.batch_runner import execute_seed_batch, iter_seed_groups
from repro.campaign.runner import execute_scenario
from repro.campaign.spec import Sweep

FAST = {"packets_per_node": 2, "warmup": 0.5, "delta": 40.0, "max_duration": 4.0}


class TestSeedGrouping:
    def _scenarios(self, **kwargs):
        sweep = Sweep(
            experiment="testbed-star",
            macs=("qma",),
            fixed=dict(FAST),
            **kwargs,
        )
        return sweep.scenarios()

    def test_groups_are_consecutive_and_bounded(self):
        scenarios = self._scenarios(seeds=tuple(range(7)))
        groups = list(iter_seed_groups(scenarios, 3))
        assert [len(g) for g in groups] == [3, 3, 1]
        assert [s.seed for g in groups for s in g] == list(range(7))

    def test_config_switch_splits_groups(self):
        sweep = Sweep(
            experiment="testbed-star",
            macs=("qma", "unslotted-csma"),
            fixed=dict(FAST),
            seeds=(0, 1),
        )
        groups = list(iter_seed_groups(sweep.scenarios(), 8))
        assert [len(g) for g in groups] == [2, 2]
        assert all(len({s.mac for s in g}) == 1 for g in groups)

    def test_non_batchable_experiments_pass_through(self):
        sweep = Sweep(
            experiment="hidden-node",
            macs=("qma",),
            grid={"delta": [25.0]},
            fixed={"packets_per_node": 2, "warmup": 0.5},
            seeds=(0, 1, 2),
        )
        scenarios = sweep.scenarios()
        groups = list(iter_seed_groups(scenarios, 4))
        assert [len(g) for g in groups] == [1, 1, 1]
        # execute_seed_batch falls back to per-scenario execution for them.
        records = execute_seed_batch(scenarios)
        reference = [execute_scenario(s) for s in scenarios]
        assert [r.metrics for r in records] == [r.metrics for r in reference]
