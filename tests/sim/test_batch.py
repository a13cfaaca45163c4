"""Unit tests for the lockstep seed-batch executor (`repro.sim.batch`)."""

from __future__ import annotations

from typing import List, Set

import repro.sim.batch as batch_mod
from repro.core.mac import _SubslotGrid
from repro.experiments.testbed import prepare_star
from repro.sim.batch import SeedBatchExecutor, _LockstepKernel, batch_compatibility_error
from repro.sim.engine import Simulator

FAST = {"packets_per_node": 2, "warmup": 0.5, "delta": 40.0, "max_duration": 4.0}
CONVERGENCE = ("pdr", "attempts", "convergence")


def _lanes(seeds, **overrides):
    kwargs = {**FAST, **overrides}
    return [prepare_star(mac="qma", seed=seed, **kwargs) for seed in seeds]


def _scalar_sets(reports):
    return [(r.scalars, r.tables) for r in reports]


class TestExecutor:
    def test_events_executed_parity(self):
        serial = _lanes([0])
        serial[0].run()
        batched = _lanes([0, 1])
        SeedBatchExecutor().run(batched)
        assert batched[0].sim.events_executed == serial[0].sim.events_executed

    def test_every_lane_counts_the_events_its_serial_run_executes(self):
        # Idle serial grids leap over boundaries without heap entries; each
        # lane must count only the boundaries its own serial run pushes,
        # however the other lanes' idle stretches fall.
        seeds = [0, 1, 2]
        serial = _lanes(seeds)
        for lane in serial:
            lane.run()
        batched = _lanes(seeds)
        SeedBatchExecutor().run(batched)
        assert [lane.sim.events_executed for lane in batched] == [
            lane.sim.events_executed for lane in serial
        ]

    def test_single_lane_falls_back(self):
        executor = SeedBatchExecutor()
        executor.run(_lanes([0]))
        assert executor.last_fallback_reason == "single lane"

    def test_empty_batch(self):
        assert SeedBatchExecutor().run([]) == []

    def test_unsupported_mac_falls_back(self):
        lanes = [
            prepare_star(mac="unslotted-csma", seed=seed, **FAST) for seed in (0, 1)
        ]
        reason = batch_compatibility_error(lanes)
        assert reason is not None and "MAC kind" in reason
        executor = SeedBatchExecutor()
        reports = executor.run(lanes)
        assert executor.last_fallback_reason == reason
        assert len(reports) == 2

    def test_heterogeneous_end_times_fall_back(self):
        lanes = _lanes([0]) + _lanes([1], max_duration=3.0)
        assert batch_compatibility_error(lanes) == "lanes have different end times"

    def test_already_run_lane_falls_back(self):
        lanes = _lanes([0, 1])
        lanes[0].sim.run_until(0.1)
        assert batch_compatibility_error(lanes) == "lane has already been run"
        # The other, untouched lane still finishes correctly via serial.
        reports = SeedBatchExecutor().run(lanes)
        assert len(reports) == 2

    def test_heterogeneous_qma_parameters_fall_back(self):
        from repro.core.config import QmaConfig

        lanes = _lanes([0]) + _lanes([1], qma_config=QmaConfig(learning_rate=0.25))
        assert batch_compatibility_error(lanes) == "lanes have heterogeneous QMA parameters"

    def test_lanes_differing_in_recorded_histories_fall_back(self):
        lanes = _lanes([0]) + _lanes([1], collectors=CONVERGENCE)
        reason = batch_compatibility_error(lanes)
        assert reason == "lanes differ in which MACs record their histories"

    def test_convergence_histories_match_serial_runs(self):
        """The kernel records the histories of the MACs the collector reads
        (the sources, not the sink) as their serial runs do."""
        seeds = [0, 1, 2]
        serial = [lane.run() for lane in _lanes(seeds, collectors=CONVERGENCE)]
        lanes = _lanes(seeds, collectors=CONVERGENCE)
        executor = SeedBatchExecutor()
        batched = executor.run(lanes)
        assert executor.last_fallback_reason is None
        for got, expected in zip(batched, serial):
            for table in ("q_history", "rho_history"):
                assert all(expected.tables[table].values())
                assert got.tables[table] == expected.tables[table]
        for lane in lanes:
            sink = lane.built.network.macs[lane.built.topology.sink]
            assert sink.q_history == [] and sink.rho_history == []

    def test_without_numpy_everything_degrades_serially(self, monkeypatch):
        expected = _scalar_sets(SeedBatchExecutor(force_serial=True).run(_lanes([0, 1])))
        monkeypatch.setattr(batch_mod, "np", None)
        executor = SeedBatchExecutor()
        got = _scalar_sets(executor.run(_lanes([0, 1])))
        assert executor.last_fallback_reason == "numpy is not available"
        assert got == expected


def _lane_state(lane):
    """Events executed, and per QMA node its Q-table, policy, the next draws
    of its stream (a seed-batch lane replaces the stream's object) and
    every other named stream's state."""
    sim = lane.sim
    macs = lane.built.network.macs
    nodes = {
        node_id: (
            mac.qtable.values_snapshot(),
            mac.policy_snapshot(),
            [mac._rng.random() for _ in range(3)],
        )
        for node_id, mac in macs.items()
    }
    qma_streams = {f"qma-{node_id}" for node_id in macs}
    streams = {
        name: stream.getstate()
        for name, stream in sim.rng._streams.items()
        if name not in qma_streams
    }
    return sim.events_executed, nodes, streams


def test_serial_boundary_fallback_matches_serial_runs(monkeypatch):
    """Every boundary of a four-lane group runs through the kernel's exact
    fallback, ``_LockstepKernel._serial_boundary``, which takes each node's
    ``QmaMac._on_subslot`` over the facades: a heap key just below every
    tick key makes each boundary look interleaved with an event.  Every
    lane ends as its seed run serially does, and the fallback reports a
    boundary due exactly where the serial grid ends it with a member due:
    at a boundary that re-arms with a member due, or at a quiet one that
    the re-arm passes."""
    seeds = [0, 1, 2, 3]
    serial = _lanes(seeds)
    lane_of = {id(lane.sim): index for index, lane in enumerate(serial)}
    grid_due: List[Set[float]] = [set() for _ in seeds]
    rearm = _SubslotGrid._rearm

    def recording_rearm(grid):
        due, ticks = grid.due, grid.ticks
        rearm(grid)
        if due:
            # This boundary and the ones passed, read off the grid's timeline.
            grid_due[lane_of[id(grid.sim)]].update(grid.times[ticks - 1:grid.ticks])

    with monkeypatch.context() as patch:
        patch.setattr(_SubslotGrid, "_rearm", recording_rearm)
        expected = [lane.run().scalars for lane in serial]
    expected_state = [_lane_state(lane) for lane in serial]

    fallback_due: List[Set[float]] = [set() for _ in seeds]
    serial_boundary = _LockstepKernel._serial_boundary

    def recording_boundary(kernel, lane, t):
        due = serial_boundary(kernel, lane, t)
        if due:
            fallback_due[lane].add(t)
        return due

    def no_vector_phases(kernel, t, mask):
        raise AssertionError("a boundary took the vector phases")

    monkeypatch.setattr(Simulator, "_next_key", lambda sim: (sim._now, -1))
    monkeypatch.setattr(_LockstepKernel, "_serial_boundary", recording_boundary)
    monkeypatch.setattr(_LockstepKernel, "_vector_phases", no_vector_phases)
    batched = _lanes(seeds)
    executor = SeedBatchExecutor()
    reports = executor.run(batched)
    assert executor.last_fallback_reason is None
    assert [report.scalars for report in reports] == expected
    assert [_lane_state(lane) for lane in batched] == expected_state
    # The t=0 boundary runs on the real grid in both (the kernel's bootstrap).
    assert all(0.0 in times for times in grid_due)
    assert fallback_due == [times - {0.0} for times in grid_due]


class TestBatchedMtStream:
    def test_replicates_cpython_random(self):
        import random

        from repro.sim.batch import _BatchStore, BatchedMtStream

        reference = random.Random(1234)
        stream = random.Random(1234)

        class _Store:
            WORD_BUFFER = _BatchStore.WORD_BUFFER

        # Build a minimal store shim around the transplant helper.
        import numpy as np

        from repro.sim.rng import transplant_bit_generator

        store = _Store()
        store.words = np.zeros((1, 1, store.WORD_BUFFER), dtype=np.uint32)
        store.cursor = np.zeros((1, 1), dtype=np.int64)
        store.bitgens = [[transplant_bit_generator(stream)]]
        store.words[0, 0] = store.bitgens[0][0].random_raw(store.WORD_BUFFER)

        def refill(lane, node):
            batch_mod._BatchStore.refill_words(store, lane, node)

        store.refill_words = refill
        batched = BatchedMtStream(store, 0, 0)
        actions = ["a", "b", "c"]
        for _ in range(500):
            assert batched.random() == reference.random()
            assert batched.choice(actions) == reference.choice(actions)
        # Crossing the refill boundary keeps the sequence aligned.
        for _ in range(200):
            assert batched.getrandbits(32) == reference.getrandbits(32)
