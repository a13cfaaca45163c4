"""Record digests of fixed scenarios, pinned.

The other determinism suites compare one execution path with another, so
a change that shifts every path in the same way passes them all.  This
table compares serial execution against literal
:func:`~repro.service.manifest.record_digest` values instead: any change
to what a run produces — MAC logic, channel delivery order, RNG draws,
metric finalisation — fails here even when all paths still agree.

Coverage: the hidden-node line for every registered MAC under explicit
links and every propagation model, the SINR hidden node, the short
hidden-node QMA/CSMA sweep with and without fading — the latter also
through the loopback-shard and pool dispatch backends, whose merged
journals must carry the same digests — testbed-star QMA with fading (also
through the seed-batch kernel) and one-ring DSME QMA.  A deliberate behaviour change must
re-pin these values and say why.
"""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner, execute_scenario
from repro.campaign.spec import Scenario, Sweep
from repro.mac.registry import MAC_REGISTRY
from repro.service.backends import PoolBackend, make_backend
from repro.service.journal import CheckpointJournal
from repro.service.manifest import record_digest
from repro.sim.batch import SeedBatchExecutor

PARAMS = {
    "matrix": {"delta": 10.0, "packets_per_node": 8, "warmup": 5.0},
    "short": {"delta": 25.0, "packets_per_node": 3, "warmup": 0.5},
    "star": {"packets_per_node": 3, "warmup": 0.5, "max_duration": 1.5},
    "dsme": {"rings": 1, "duration": 8.0, "warmup": 2.0},
}

#: (experiment, mac, propagation, seed, params) -> record digest.
PINNED = {
    ("hidden-node", "aloha-q", None, 6, "matrix"): "9ee964924109a92c",
    ("hidden-node", "aloha-q", "unit-disk", 6, "matrix"): "c9007eb9aadf33e8",
    ("hidden-node", "aloha-q", "log-distance", 6, "matrix"): "3dd19d0349576706",
    ("hidden-node", "aloha-q", "fading", 6, "matrix"): "b29bbfb911dfc67d",
    ("hidden-node", "qma", None, 6, "matrix"): "3090e7bfb5fd1458",
    ("hidden-node", "qma", "unit-disk", 6, "matrix"): "95c562913a451f3c",
    ("hidden-node", "qma", "log-distance", 6, "matrix"): "2b7eae4ba5abf2a0",
    ("hidden-node", "qma", "fading", 6, "matrix"): "562c14ef0b7211d7",
    ("hidden-node", "slotted-aloha", None, 6, "matrix"): "cc0b82c7d1cc5903",
    ("hidden-node", "slotted-aloha", "unit-disk", 6, "matrix"): "9c6423006473a3b1",
    ("hidden-node", "slotted-aloha", "log-distance", 6, "matrix"): "5f61e49a4413f0b9",
    ("hidden-node", "slotted-aloha", "fading", 6, "matrix"): "1de5b7f475811608",
    ("hidden-node", "slotted-csma", None, 6, "matrix"): "4c564657dc1b6d91",
    ("hidden-node", "slotted-csma", "unit-disk", 6, "matrix"): "49818bd93f911167",
    ("hidden-node", "slotted-csma", "log-distance", 6, "matrix"): "9ef0ac1a6172da43",
    ("hidden-node", "slotted-csma", "fading", 6, "matrix"): "d4e4e02d980483ed",
    ("hidden-node", "tdma", None, 6, "matrix"): "b999ba0925ad79f2",
    ("hidden-node", "tdma", "unit-disk", 6, "matrix"): "83e282acfe410a0c",
    ("hidden-node", "tdma", "log-distance", 6, "matrix"): "2bd7184cd990f164",
    ("hidden-node", "tdma", "fading", 6, "matrix"): "1d010e2090d98499",
    ("hidden-node", "unslotted-csma", None, 6, "matrix"): "8b6b14540479bba0",
    ("hidden-node", "unslotted-csma", "unit-disk", 6, "matrix"): "85c7ab6b4221b820",
    ("hidden-node", "unslotted-csma", "log-distance", 6, "matrix"): "584c6dfbe6e15658",
    ("hidden-node", "unslotted-csma", "fading", 6, "matrix"): "d6d7975caac7f0a6",
    ("sinr-hidden-node", "qma", None, 0, "short"): "ff9f1715a04a22d9",
    ("sinr-hidden-node", "qma", None, 1, "short"): "3a2218a5eaa7b198",
    ("sinr-hidden-node", "unslotted-csma", None, 0, "short"): "c56eb783f268dbea",
    ("sinr-hidden-node", "unslotted-csma", None, 1, "short"): "47db52790e6289d8",
    ("hidden-node", "qma", None, 0, "short"): "d996f919fb0d8514",
    ("hidden-node", "qma", None, 1, "short"): "2c005ecfd95492d6",
    ("hidden-node", "qma", "fading", 0, "short"): "bd4957b6fe256968",
    ("hidden-node", "qma", "fading", 1, "short"): "6a14eea002043a1a",
    ("hidden-node", "unslotted-csma", None, 0, "short"): "1f7e27f064fe840e",
    ("hidden-node", "unslotted-csma", None, 1, "short"): "4710465034388dfb",
    ("hidden-node", "unslotted-csma", "fading", 0, "short"): "3efbdb6dbe94ee88",
    ("hidden-node", "unslotted-csma", "fading", 1, "short"): "96a2df19354ffd58",
    ("testbed-star", "qma", "fading", 0, "star"): "25ad3703d28d71f1",
    ("testbed-star", "qma", "fading", 1, "star"): "dd53b0c31ccc0894",
    ("scalability", "qma", None, 0, "dsme"): "ad4a96e6fac21056",
    ("scalability", "qma", None, 1, "dsme"): "8910a2c002be7a67",
}


@pytest.mark.parametrize(
    "key", list(PINNED), ids=lambda key: "-".join(str(part) for part in key)
)
def test_serial_run_reproduces_pinned_digest(key):
    experiment, mac, propagation, seed, params = key
    scenario = Scenario(
        experiment=experiment,
        mac=mac,
        seed=seed,
        params=PARAMS[params],
        propagation=propagation,
    )
    assert record_digest(execute_scenario(scenario).to_dict()) == PINNED[key]


def test_matrix_covers_every_registered_mac():
    """A newly registered MAC must be pinned before it ships."""
    pinned = {mac for _, mac, _, _, params in PINNED if params == "matrix"}
    assert pinned == set(MAC_REGISTRY.names())


#: The eight "short" hidden-node rows as one sweep.
SHORT_SWEEP = Sweep(
    experiment="hidden-node",
    macs=["qma", "unslotted-csma"],
    propagations=[None, "fading"],
    fixed=PARAMS["short"],
    seeds=[0, 1],
)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_backend({"backend": "shard", "shards": 2}),
        lambda: PoolBackend(jobs=2),
    ],
    ids=["shard", "pool"],
)
def test_dispatch_backend_reproduces_pinned_digests(make, tmp_path):
    backend = make()
    journal = CheckpointJournal.create(str(tmp_path / "short.jsonl"), SHORT_SWEEP)
    try:
        backend.run(SHORT_SWEEP, list(range(SHORT_SWEEP.size)), journal)
        merged = dict(journal.iter_completed())
    finally:
        journal.close()
        backend.close()
    assert sorted(merged) == list(range(SHORT_SWEEP.size)) == list(range(8))
    for index, scenario in enumerate(SHORT_SWEEP):
        key = (scenario.experiment, scenario.mac, scenario.propagation, scenario.seed, "short")
        assert record_digest(merged[index].to_dict()) == PINNED[key], key


def test_seed_batch_reproduces_pinned_star_digests(monkeypatch):
    """The star rows again, as one lockstep batch of both seeds."""
    fallbacks = []
    run = SeedBatchExecutor.run

    def spy(self, lanes):
        reports = run(self, lanes)
        fallbacks.append(self.last_fallback_reason)
        return reports

    monkeypatch.setattr(SeedBatchExecutor, "run", spy)
    sweep = Sweep(
        experiment="testbed-star",
        macs=["qma"],
        propagations=["fading"],
        fixed=PARAMS["star"],
        seeds=[0, 1],
    )
    with CampaignRunner(jobs=1, batch_seeds=2) as runner:
        records = list(runner.iter_records(sweep))
    assert fallbacks == [None]
    assert [record_digest(record.to_dict()) for record in records] == [
        PINNED[("testbed-star", "qma", "fading", seed, "star")] for seed in (0, 1)
    ]
