"""The determinism contract: every execution path reproduces one pinned table.

A record must depend on its scenario and nothing else, so :data:`PINNED`
maps ``(experiment, mac, propagation, seed, label)`` to the literal
:func:`~repro.service.manifest.record_digest` of that run, and
:func:`test_path_reproduces_pinned_digests` requires every execution path
to reproduce every row it runs, one case per path and sweep:

* serial :func:`~repro.campaign.runner.execute_scenario`, which also
  requires that no QMA subslot boundary has an event keyed between two
  of its turns;
* ``CampaignRunner(jobs=1)`` with the build cache on, off and at
  ``cache_size=1`` (forced eviction);
* ``CampaignRunner(jobs=2)`` through ``run`` and ``stream``, chunked;
* ``batch_seeds`` 2 and 4 (ragged tails) at ``jobs=1`` and ``jobs=2``, on
  the testbed rows, where each seed group runs its lanes one after
  another;
* :func:`~repro.service.checkpoint.run_checkpointed` cut part-way and
  resumed, including a cut inside a seed group;
* the pool backend, and two ``spawn_agent`` agents through
  ``RemoteBackend`` resuming a partial journal;
* a supervised pool backend whose worker crashes (exit code 86), retried
  through :func:`~repro.service.checkpoint.run_checkpointed`.

The oracle is the table, never another path, so a change that moves every
path the same way — MAC logic, channel delivery order, RNG draws, metric
finalisation — still fails here.  The rows cover every registered MAC and
propagation model, every experiment family, collision and SINR
interference, the SINR threshold, link errors, the scalability topology
axis, a non-default collector selection and a sweep whose configuration
changes mid-way.

Re-pinning: a change that alters results re-pins this table in its own
PR, and that PR explains why the results changed (the same rule as
perfbench's ``digests.json``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import pytest

from repro.campaign.runner import CampaignRunner, execute_scenario
from repro.campaign.spec import EXPERIMENT_KINDS, Sweep, construction_affinity_key
from repro.core.mac import _SubslotGrid
from repro.mac.registry import MAC_REGISTRY
from repro.phy.registry import PROPAGATION_REGISTRY
from repro.scenario import ARTIFACT_CACHE, ScenarioBuilder
from repro.service import faults
from repro.service.agent import spawn_agent
from repro.service.backends import PoolBackend
from repro.service.checkpoint import run_checkpointed
from repro.service.journal import CheckpointJournal
from repro.service.manifest import record_digest
from repro.service.remote import RemoteBackend
from repro.service.supervisor import make_supervised
from repro.sim.batch import SeedBatchExecutor

#: Named parameter bases; a row's label is its base plus its grid values.
PARAMS = {
    "matrix": {"delta": 10.0, "packets_per_node": 8, "warmup": 5.0},
    "short": {"delta": 25.0, "packets_per_node": 3, "warmup": 0.5},
    "star": {"packets_per_node": 3, "warmup": 0.5, "max_duration": 1.5},
    "dsme": {"rings": 1, "duration": 8.0, "warmup": 2.0},
}

MACS = MAC_REGISTRY.names()
PROPAGATIONS = PROPAGATION_REGISTRY.names()
QMA_CSMA = ["qma", "unslotted-csma"]
COLLECTORS = ("pdr", "delay", "attempts")


def _sweep(base: str, experiment: str, macs: Sequence[str], **kwargs: Any) -> Tuple[str, Sweep]:
    kwargs.setdefault("seeds", [0, 1])
    return base, Sweep(experiment=experiment, macs=list(macs), fixed=PARAMS[base], **kwargs)


#: The table's rows as sweeps; together they expand to exactly PINNED.
SWEEPS: Dict[str, Tuple[str, Sweep]] = {
    "mac-x-propagation": _sweep(
        "matrix", "hidden-node", MACS, propagations=[None, *PROPAGATIONS], seeds=[6]
    ),
    "collectors": _sweep("matrix", "hidden-node", MACS, seeds=[6], metrics=COLLECTORS),
    "short": _sweep("short", "hidden-node", QMA_CSMA, propagations=[None, "fading"]),
    "interference": _sweep(
        "short",
        "hidden-node",
        QMA_CSMA,
        propagations=PROPAGATIONS,
        grid={"interference": ["collision", "sinr"]},
        seeds=[0],
    ),
    "sinr-hidden-node": _sweep("short", "sinr-hidden-node", MACS),
    "sinr-threshold": _sweep(
        "short",
        "sinr-hidden-node",
        ["unslotted-csma"],
        grid={"sinr_threshold_db": [3.0, 10.0]},
        seeds=[0],
    ),
    "star": _sweep("star", "testbed-star", ["qma"], propagations=["unit-disk", "fading"]),
    "star-sinr": _sweep(
        "star",
        "testbed-star",
        ["qma"],
        propagations=["fading", "log-distance"],
        grid={"interference": ["sinr"]},
    ),
    "link-errors": _sweep(
        "star",
        "testbed-star",
        ["unslotted-csma"],
        propagations=[None, "log-distance"],
        grid={"link_error_rate": [0.05]},
    ),
    "config-switch": _sweep(
        "star", "testbed-star", QMA_CSMA, grid={"delta": [20.0, 40.0]}, seeds=[0, 1, 2]
    ),
    "tree": _sweep("star", "testbed-tree", ["qma"], propagations=["fading"], seeds=list(range(5))),
    "dsme": _sweep("dsme", "scalability", ["qma"]),
    "topology": _sweep(
        "dsme", "scalability", ["qma"], grid={"topology": ["concentric", "random"], "nodes": [6]}
    ),
}

TESTBED = [name for name, (_, sweep) in SWEEPS.items() if sweep.experiment.startswith("testbed")]

#: (experiment, mac, propagation, seed, label) -> record digest.
PINNED = {
    # mac-x-propagation
    ("hidden-node", "unslotted-csma", None, 6, "matrix"): "8b6b14540479bba0",
    ("hidden-node", "unslotted-csma", "unit-disk", 6, "matrix"): "85c7ab6b4221b820",
    ("hidden-node", "unslotted-csma", "log-distance", 6, "matrix"): "584c6dfbe6e15658",
    ("hidden-node", "unslotted-csma", "fading", 6, "matrix"): "d6d7975caac7f0a6",
    ("hidden-node", "slotted-csma", None, 6, "matrix"): "4c564657dc1b6d91",
    ("hidden-node", "slotted-csma", "unit-disk", 6, "matrix"): "49818bd93f911167",
    ("hidden-node", "slotted-csma", "log-distance", 6, "matrix"): "9ef0ac1a6172da43",
    ("hidden-node", "slotted-csma", "fading", 6, "matrix"): "d4e4e02d980483ed",
    ("hidden-node", "slotted-aloha", None, 6, "matrix"): "cc0b82c7d1cc5903",
    ("hidden-node", "slotted-aloha", "unit-disk", 6, "matrix"): "9c6423006473a3b1",
    ("hidden-node", "slotted-aloha", "log-distance", 6, "matrix"): "5f61e49a4413f0b9",
    ("hidden-node", "slotted-aloha", "fading", 6, "matrix"): "1de5b7f475811608",
    ("hidden-node", "aloha-q", None, 6, "matrix"): "9ee964924109a92c",
    ("hidden-node", "aloha-q", "unit-disk", 6, "matrix"): "c9007eb9aadf33e8",
    ("hidden-node", "aloha-q", "log-distance", 6, "matrix"): "3dd19d0349576706",
    ("hidden-node", "aloha-q", "fading", 6, "matrix"): "b29bbfb911dfc67d",
    ("hidden-node", "tdma", None, 6, "matrix"): "b999ba0925ad79f2",
    ("hidden-node", "tdma", "unit-disk", 6, "matrix"): "83e282acfe410a0c",
    ("hidden-node", "tdma", "log-distance", 6, "matrix"): "2bd7184cd990f164",
    ("hidden-node", "tdma", "fading", 6, "matrix"): "1d010e2090d98499",
    ("hidden-node", "qma", None, 6, "matrix"): "3090e7bfb5fd1458",
    ("hidden-node", "qma", "unit-disk", 6, "matrix"): "95c562913a451f3c",
    ("hidden-node", "qma", "log-distance", 6, "matrix"): "2b7eae4ba5abf2a0",
    ("hidden-node", "qma", "fading", 6, "matrix"): "562c14ef0b7211d7",
    # collectors
    ("hidden-node", "unslotted-csma", None, 6, "matrix metrics=pdr,delay,attempts"): "a682743635b67a71",
    ("hidden-node", "slotted-csma", None, 6, "matrix metrics=pdr,delay,attempts"): "0b810184c0b08939",
    ("hidden-node", "slotted-aloha", None, 6, "matrix metrics=pdr,delay,attempts"): "fb4c314b7ad86593",
    ("hidden-node", "aloha-q", None, 6, "matrix metrics=pdr,delay,attempts"): "a896d95a0b367e82",
    ("hidden-node", "tdma", None, 6, "matrix metrics=pdr,delay,attempts"): "472c23a2ece63837",
    ("hidden-node", "qma", None, 6, "matrix metrics=pdr,delay,attempts"): "aa882f71e063d416",
    # short
    ("hidden-node", "qma", None, 0, "short"): "d996f919fb0d8514",
    ("hidden-node", "qma", None, 1, "short"): "2c005ecfd95492d6",
    ("hidden-node", "qma", "fading", 0, "short"): "bd4957b6fe256968",
    ("hidden-node", "qma", "fading", 1, "short"): "6a14eea002043a1a",
    ("hidden-node", "unslotted-csma", None, 0, "short"): "1f7e27f064fe840e",
    ("hidden-node", "unslotted-csma", None, 1, "short"): "4710465034388dfb",
    ("hidden-node", "unslotted-csma", "fading", 0, "short"): "3efbdb6dbe94ee88",
    ("hidden-node", "unslotted-csma", "fading", 1, "short"): "96a2df19354ffd58",
    # interference
    ("hidden-node", "qma", "unit-disk", 0, "short interference=collision"): "6ddf2510ab9ff5f5",
    ("hidden-node", "qma", "unit-disk", 0, "short interference=sinr"): "76fe27da996b79df",
    ("hidden-node", "qma", "log-distance", 0, "short interference=collision"): "3676745834395977",
    ("hidden-node", "qma", "log-distance", 0, "short interference=sinr"): "0791e3faa8d22a63",
    ("hidden-node", "qma", "fading", 0, "short interference=collision"): "a40bc0478bb1534b",
    ("hidden-node", "qma", "fading", 0, "short interference=sinr"): "bcab867c19537a77",
    ("hidden-node", "unslotted-csma", "unit-disk", 0, "short interference=collision"): "1d5e3b07a991e700",
    ("hidden-node", "unslotted-csma", "unit-disk", 0, "short interference=sinr"): "3d3dd86aeab8ba63",
    ("hidden-node", "unslotted-csma", "log-distance", 0, "short interference=collision"): "238885c18c9af26c",
    ("hidden-node", "unslotted-csma", "log-distance", 0, "short interference=sinr"): "b890d19745a450ed",
    ("hidden-node", "unslotted-csma", "fading", 0, "short interference=collision"): "035b78f0def51f9a",
    ("hidden-node", "unslotted-csma", "fading", 0, "short interference=sinr"): "ca83ded1658beffd",
    # sinr-hidden-node
    ("sinr-hidden-node", "unslotted-csma", None, 0, "short"): "c56eb783f268dbea",
    ("sinr-hidden-node", "unslotted-csma", None, 1, "short"): "47db52790e6289d8",
    ("sinr-hidden-node", "slotted-csma", None, 0, "short"): "7674019bf0ccfdf8",
    ("sinr-hidden-node", "slotted-csma", None, 1, "short"): "e300429d6ba3785b",
    ("sinr-hidden-node", "slotted-aloha", None, 0, "short"): "33a628b539a5fa6d",
    ("sinr-hidden-node", "slotted-aloha", None, 1, "short"): "e50e842c82bcd70c",
    ("sinr-hidden-node", "aloha-q", None, 0, "short"): "261dd21cf39e3792",
    ("sinr-hidden-node", "aloha-q", None, 1, "short"): "642dd74b481f0c49",
    ("sinr-hidden-node", "tdma", None, 0, "short"): "c233c57c3819e7f9",
    ("sinr-hidden-node", "tdma", None, 1, "short"): "aae57c4168e2329e",
    ("sinr-hidden-node", "qma", None, 0, "short"): "ff9f1715a04a22d9",
    ("sinr-hidden-node", "qma", None, 1, "short"): "3a2218a5eaa7b198",
    # sinr-threshold
    ("sinr-hidden-node", "unslotted-csma", None, 0, "short sinr_threshold_db=3.0"): "82767274e66df007",
    ("sinr-hidden-node", "unslotted-csma", None, 0, "short sinr_threshold_db=10.0"): "cc05ef3c0834abf7",
    # star
    ("testbed-star", "qma", "unit-disk", 0, "star"): "91e09a06d5177910",
    ("testbed-star", "qma", "unit-disk", 1, "star"): "9d6a67967b9bda74",
    ("testbed-star", "qma", "fading", 0, "star"): "25ad3703d28d71f1",
    ("testbed-star", "qma", "fading", 1, "star"): "dd53b0c31ccc0894",
    # star-sinr
    ("testbed-star", "qma", "fading", 0, "star interference=sinr"): "7c144338fcf42bae",
    ("testbed-star", "qma", "fading", 1, "star interference=sinr"): "6b3ab202e7c660ee",
    ("testbed-star", "qma", "log-distance", 0, "star interference=sinr"): "11e9430648cc6e62",
    ("testbed-star", "qma", "log-distance", 1, "star interference=sinr"): "9a71476bdd2f4eeb",
    # link-errors
    ("testbed-star", "unslotted-csma", None, 0, "star link_error_rate=0.05"): "ac13750e1e7efd70",
    ("testbed-star", "unslotted-csma", None, 1, "star link_error_rate=0.05"): "2cf41db8321a11bb",
    ("testbed-star", "unslotted-csma", "log-distance", 0, "star link_error_rate=0.05"): "fdf70249eefa86fa",
    ("testbed-star", "unslotted-csma", "log-distance", 1, "star link_error_rate=0.05"): "ad6e0e85215b1f1b",
    # config-switch
    ("testbed-star", "qma", None, 0, "star delta=20.0"): "63d4403d3046cb2e",
    ("testbed-star", "qma", None, 1, "star delta=20.0"): "63fa5cb5db31845a",
    ("testbed-star", "qma", None, 2, "star delta=20.0"): "b71d86a406f4bbee",
    ("testbed-star", "qma", None, 0, "star delta=40.0"): "a943b2ecf4ba726e",
    ("testbed-star", "qma", None, 1, "star delta=40.0"): "a54cfcf3bc325e44",
    ("testbed-star", "qma", None, 2, "star delta=40.0"): "3877845fb6c7014d",
    ("testbed-star", "unslotted-csma", None, 0, "star delta=20.0"): "da079bb41a6f104a",
    ("testbed-star", "unslotted-csma", None, 1, "star delta=20.0"): "f65ddbc29680d53c",
    ("testbed-star", "unslotted-csma", None, 2, "star delta=20.0"): "3b8ff0bf347beb98",
    ("testbed-star", "unslotted-csma", None, 0, "star delta=40.0"): "1397603b76259f96",
    ("testbed-star", "unslotted-csma", None, 1, "star delta=40.0"): "0c2d38fc0f711ebc",
    ("testbed-star", "unslotted-csma", None, 2, "star delta=40.0"): "8c10b8f0dfc9560f",
    # tree
    ("testbed-tree", "qma", "fading", 0, "star"): "113163f47c98811a",
    ("testbed-tree", "qma", "fading", 1, "star"): "0a673725c80caa37",
    ("testbed-tree", "qma", "fading", 2, "star"): "0585fe3f5621b551",
    ("testbed-tree", "qma", "fading", 3, "star"): "a14d10d385899f17",
    ("testbed-tree", "qma", "fading", 4, "star"): "332abe509735dc2d",
    # dsme
    ("scalability", "qma", None, 0, "dsme"): "ad4a96e6fac21056",
    ("scalability", "qma", None, 1, "dsme"): "8910a2c002be7a67",
    # topology
    ("scalability", "qma", None, 0, "dsme nodes=6 topology=concentric"): "e06a8975ca0e6c04",
    ("scalability", "qma", None, 1, "dsme nodes=6 topology=concentric"): "7c5a599809f728a5",
    ("scalability", "qma", None, 0, "dsme nodes=6 topology=random"): "ab841490bcdf9f6f",
    ("scalability", "qma", None, 1, "dsme nodes=6 topology=random"): "135aff38056b5ce5",
}


def _key(base: str, sweep: Sweep, scenario: Any) -> Tuple:
    """The table key of one scenario of ``sweep``: its label is the base
    plus the scenario's grid values and any collector selection."""
    label = [base] + [f"{axis}={scenario.params[axis]}" for axis in sweep.axes]
    if scenario.metrics is not None:
        label.append("metrics=" + ",".join(scenario.metrics))
    return (scenario.experiment, scenario.mac, scenario.propagation, scenario.seed, " ".join(label))


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


# ------------------------------------------------------------------ paths
#
# A path takes one sweep and a scratch directory, and returns the sweep's
# records in expansion order.


def _serial(sweep, tmp_path):
    """Also requires that no QMA boundary of a pinned row ever has an event
    keyed between two of its turns, so none is walked turn by turn
    (``_SubslotGrid._walk``)."""
    walked = []
    walk = _SubslotGrid._walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_SubslotGrid, "_walk", lambda grid: walked.append(grid.time) or walk(grid))
        records = [execute_scenario(scenario) for scenario in sweep]
    assert walked == []
    return records


def _runner(**options):
    def run(sweep, tmp_path):
        with CampaignRunner(**options) as runner:
            return runner.run(sweep).records

    return run


def _pool_chunked(sweep, tmp_path):
    return _runner(jobs=2, chunksize=3)(sweep, tmp_path)


def _evicting(sweep, tmp_path):
    evictions = ARTIFACT_CACHE.stats()["evictions"]
    records = _runner(jobs=1, cache_size=1)(sweep, tmp_path)
    assert ARTIFACT_CACHE.stats()["evictions"] > evictions
    return records


class _ListSink:
    def __init__(self) -> None:
        self.records: List[Any] = []
        self.write = self.records.append

    def close(self) -> None:
        pass


def _streamed(sweep, tmp_path):
    sink = _ListSink()
    with CampaignRunner(jobs=2, chunksize=3) as runner:
        runner.stream(sweep, sinks=[sink])
    return sink.records


def _batched(batch_seeds: int, jobs: int):
    def run(sweep, tmp_path):
        groups = []
        executor_run = SeedBatchExecutor.run

        def spy(self, lanes):
            groups.append(len(lanes))
            return executor_run(self, lanes)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SeedBatchExecutor, "run", spy)
            records = _runner(jobs=jobs, batch_seeds=batch_seeds)(sweep, tmp_path)
        if jobs == 1:
            # The seeds really ran as groups, not one task per seed.
            assert max(groups) > 1
        return records

    return run


class _Cut(Exception):
    """Raised from ``on_record`` to interrupt a checkpointed sweep."""


def _checkpointed(
    first: Callable[[], Any], resume: Callable[[], Any], cut: Callable[[Sweep], int]
):
    """Run the sweep until ``cut(sweep)`` records are journaled, then resume."""

    def run(sweep, tmp_path):
        path = str(tmp_path / "cut.jsonl")
        stop_at = cut(sweep)
        seen = []

        def stop(index, record):
            seen.append(index)
            if len(seen) == stop_at:
                raise _Cut

        backend = first()
        try:
            with pytest.raises(_Cut):
                run_checkpointed(sweep, path, backend=backend, on_record=stop)
        finally:
            backend.close()
        backend = resume()
        try:
            outcome = run_checkpointed(sweep, path, backend=backend, collect=True)
        finally:
            backend.close()
        assert (outcome.resumed, outcome.executed) == (stop_at, sweep.size - stop_at)
        return outcome.records

    return run


def _journaled(backend: Any, sweep: Sweep, path: str, halves: bool = False) -> List[Any]:
    """Run the sweep through ``backend`` into a fresh journal; return its records.

    With ``halves`` the even indices run first and the rest resume from the
    partial journal.
    """
    journal = CheckpointJournal.create(path, sweep)
    try:
        if halves:
            backend.run(sweep, list(range(0, sweep.size, 2)), journal)
        backend.run(sweep, journal.pending_indices(), journal)
        records = dict(journal.iter_completed())
    finally:
        journal.close()
    assert sorted(records) == list(range(sweep.size))
    return [records[index] for index in range(sweep.size)]


def _backend(make: Callable[[], Any]):
    def run(sweep, tmp_path):
        backend = make()
        try:
            return _journaled(backend, sweep, str(tmp_path / "run.jsonl"))
        finally:
            backend.close()

    return run


def _remote_agents(sweep, tmp_path):
    procs, hosts = [], []
    try:
        for name in ("a0", "a1"):
            proc, host = spawn_agent(str(tmp_path / name), name=name)
            procs.append(proc)
            hosts.append(f"{host}*2")
        backend = RemoteBackend(hosts)
        try:
            return _journaled(backend, sweep, str(tmp_path / "run.jsonl"), halves=True)
        finally:
            backend.close()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _crash_recovered(sweep, tmp_path):
    """A pool worker dies at seed 1; the supervisor must see the pool name
    its exit code and retry the pending runs."""
    backend = make_supervised({"jobs": 2, "faults": "crash@seed=1", "backoff_base": 0.0})
    assert isinstance(backend.inner, PoolBackend)
    try:
        outcome = run_checkpointed(sweep, str(tmp_path / "crash.jsonl"), backend=backend,
                                   collect=True)
    finally:
        backend.close()
        faults.install(None)
    retries = [event for event in backend.events if event["kind"] == "retry"]
    assert retries and "exited with code 86" in retries[0]["error"]
    assert outcome.status == "complete"
    return outcome.records


ALL = list(SWEEPS)
#: Sweeps that build more than one topology, so a one-entry cache evicts.
EVICTING = [
    name
    for name in ALL
    if name not in ("collectors", "sinr-hidden-node", "sinr-threshold", "config-switch", "dsme")
]
#: Dispatch backends run one hidden-node and one testbed sweep.
BACKEND = ["short", "config-switch"]

#: (id, path, the sweeps it runs).
PATHS = [
    ("serial", _serial, ALL),
    ("runner-cache-on", _runner(jobs=1), ALL),
    ("runner-cache-off", _runner(jobs=1, build_cache=False), ALL),
    ("runner-cache-size-1", _evicting, EVICTING),
    ("pool-run-chunked", _pool_chunked, ALL),
    ("pool-stream-chunked", _streamed, ALL),
    ("batch-2-jobs-1", _batched(2, jobs=1), TESTBED),
    ("batch-4-jobs-1", _batched(4, jobs=1), TESTBED),
    ("batch-2-jobs-2", _batched(2, jobs=2), TESTBED),
    ("batch-4-jobs-2", _batched(4, jobs=2), TESTBED),
    (
        "checkpoint-cut-resume",
        _checkpointed(PoolBackend, lambda: PoolBackend(jobs=2), lambda sweep: sweep.size // 2),
        ALL,
    ),
    (
        # Every testbed sweep's first configuration has at least two seeds,
        # so a cut after one record lands inside the first two-lane group.
        "checkpoint-cut-in-batch-group",
        _checkpointed(
            lambda: PoolBackend(batch_seeds=2),
            lambda: PoolBackend(jobs=2, batch_seeds=2),
            lambda sweep: 1,
        ),
        TESTBED,
    ),
    ("pool-backend", _backend(lambda: PoolBackend(jobs=2)), BACKEND),
    ("pool-crash-recovery", _crash_recovered, BACKEND),
    ("remote-agents-resume", _remote_agents, BACKEND),
]


#: One case per (path, sweep it runs), so a failure names both.
CASES = [(f"{pid}-{name}", path, name) for pid, path, names in PATHS for name in names]


@pytest.mark.parametrize(
    "path, name", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_path_reproduces_pinned_digests(path, name, tmp_path):
    base, sweep = SWEEPS[name]
    records = path(sweep, tmp_path)
    got = [(_key(base, sweep, r.scenario), record_digest(r.to_dict())) for r in records]
    assert got == [(key, PINNED[key]) for key in (_key(base, sweep, s) for s in sweep)]


def test_sweeps_expand_to_the_table():
    keys = [_key(base, sweep, s) for base, sweep in SWEEPS.values() for s in sweep]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(PINNED)


def test_table_covers_every_registered_mac_propagation_and_family():
    """A new MAC, propagation model or experiment family needs a pin to ship."""
    matrix = {(mac, prop) for _, mac, prop, _, label in PINNED if label == "matrix"}
    assert matrix == {(mac, prop) for mac in MACS for prop in (None, *PROPAGATIONS)}
    assert {key[0] for key in PINNED} == set(EXPERIMENT_KINDS)


class _Built(Exception):
    """Raised by the cache-key spy once a run has resolved its config."""


def test_affinity_key_is_coarser_than_cache_key(monkeypatch):
    """Runs the campaign runner groups together (equal affinity key) must
    share one construction bundle (equal ``cache_key()``), across the rows
    that vary channel settings and the scalability topology.  Each run is
    stopped right after its scenario config is resolved."""

    def spy(builder):
        raise _Built(builder.config.cache_key())

    monkeypatch.setattr(ScenarioBuilder, "resolve_artifacts", spy)
    groups: Dict[Tuple, set] = {}
    for name in ("interference", "link-errors", "star-sinr", "topology"):
        _, sweep = SWEEPS[name]
        for scenario in sweep:
            with pytest.raises(_Built) as built:
                execute_scenario(scenario)
            affinity = construction_affinity_key(
                scenario.experiment, scenario.propagation, scenario.seed, scenario.params
            )
            groups.setdefault((scenario.experiment, affinity), set()).add(built.value.args[0])
    assert all(len(keys) == 1 and None not in keys for keys in groups.values())
    # Collision and SINR runs of one deployment group together, and so do
    # the lossy CSMA star runs and the SINR QMA star runs on log-distance.
    assert len(groups) < sum(SWEEPS[n][1].size for n in ("interference", "link-errors"))
