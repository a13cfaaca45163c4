"""Unit tests for the lockstep seed-batch executor (`repro.sim.batch`)."""

from __future__ import annotations

import repro.sim.batch as batch_mod
from repro.experiments.testbed import prepare_star
from repro.sim.batch import SeedBatchExecutor, batch_compatibility_error

FAST = {"packets_per_node": 2, "warmup": 0.5, "delta": 40.0, "max_duration": 4.0}


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

    def test_without_numpy_everything_degrades_serially(self, monkeypatch):
        expected = _scalar_sets(SeedBatchExecutor(force_serial=True).run(_lanes([0, 1])))
        monkeypatch.setattr(batch_mod, "np", None)
        executor = SeedBatchExecutor()
        got = _scalar_sets(executor.run(_lanes([0, 1])))
        assert executor.last_fallback_reason == "numpy is not available"
        assert got == expected


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
