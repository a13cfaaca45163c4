"""Tests for the persistent warm worker pool and chunked dispatch.

The pool (a process-pool executor) is an orchestration optimisation:
records must be bit-identical to serial execution for every worker count
and chunk size, the workers must be reused across calls (that is the
point), degenerate inputs (empty sweeps, empty scenario lists) must yield
nothing instead of touching the pool machinery, and a dead worker must
end a dispatch, never hang it or its teardown.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time

import pytest

from repro.campaign.frame import TableAggregator
from repro.campaign.runner import (
    CampaignRunner,
    ScenarioTemplate,
    WorkerDied,
    resolve_chunksize,
)
from repro.campaign.spec import Scenario, Sweep
from repro.service import faults
from repro.service.faults import FaultPlan


def _tiny_sweep(seeds=(0, 1), macs=("qma", "unslotted-csma")) -> Sweep:
    return Sweep(
        experiment="hidden-node",
        macs=macs,
        grid={"delta": [10.0]},
        fixed={"packets_per_node": 8, "warmup": 5.0},
        seeds=seeds,
    )


def _fast_sweep(seeds=(0, 1)) -> Sweep:
    """Runs of a few milliseconds each."""
    return Sweep(
        experiment="hidden-node",
        macs=("unslotted-csma",),
        grid={"delta": [50.0]},
        fixed={"packets_per_node": 2, "warmup": 0.2, "drain_time": 0.1,
               "management_period": 0.5},
        seeds=seeds,
    )


def _worker_pids() -> set:
    return {child.pid for child in multiprocessing.active_children()}


def _spy_terminate(monkeypatch):
    """Record every process ``terminate`` call (the call still goes through)."""
    calls = []
    original = multiprocessing.process.BaseProcess.terminate

    def terminate(process):
        calls.append(process.pid)
        original(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate", terminate)
    return calls


class TestEmptyCampaigns:
    """Regression: an empty campaign must run (to nothing), not crash."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_run_on_empty_scenario_list(self, jobs):
        with CampaignRunner(jobs=jobs) as runner:
            assert len(runner.run([])) == 0

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_iter_records_on_empty_scenario_list(self, jobs):
        with CampaignRunner(jobs=jobs) as runner:
            assert list(runner.iter_records([])) == []

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_stream_on_empty_scenario_list(self, jobs):
        sink = TableAggregator()
        with CampaignRunner(jobs=jobs) as runner:
            runner.stream([], sinks=[sink])
        assert sink.written == 0 and sink.metric_names() == []


class TestChunksize:
    def test_auto_formula(self):
        assert resolve_chunksize("auto", 500, 4) == 15  # 500 // 32
        assert resolve_chunksize("auto", 10, 4) == 1
        assert resolve_chunksize("auto", 0, 4) == 1

    def test_explicit_value(self):
        assert resolve_chunksize(7, 500, 4) == 7

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            resolve_chunksize(0, 10, 4)
        with pytest.raises(ValueError):
            CampaignRunner(jobs=2, chunksize=-1)

    def test_pool_config_reports_effective_settings(self):
        runner = CampaignRunner(jobs=4, chunksize="auto")
        assert runner.pool_config(500) == {
            "jobs": 4, "chunksize": 15, "pool": "persistent", "build_cache": True,
            "batch_seeds": 1,
        }
        serial = CampaignRunner(jobs=1)
        assert serial.pool_config(500)["pool"] == "serial"
        cold = CampaignRunner(jobs=4, build_cache=False)
        assert cold.pool_config(500)["build_cache"] is False
        batched = CampaignRunner(jobs=4, batch_seeds=8)
        assert batched.pool_config(500)["batch_seeds"] == 8


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        sweep = _tiny_sweep()
        with CampaignRunner(jobs=2) as runner:
            first = runner.run(sweep)
            executor, workers = runner._pool, _worker_pids()
            assert executor is not None and len(workers) == 2
            second = runner.run(_tiny_sweep(seeds=(2, 3)))
            # Same template (experiment/fixed/metrics) -> same warm workers.
            assert runner._pool is executor
            assert _worker_pids() == workers
        assert first.records != second.records  # different seeds, real runs
        assert runner._pool is None  # context exit released the pool
        assert multiprocessing.active_children() == []

    def test_pool_recreated_when_template_changes(self):
        with CampaignRunner(jobs=2) as runner:
            runner.run(_tiny_sweep())
            executor, workers = runner._pool, _worker_pids()
            other = Sweep(
                experiment="hidden-node",
                macs=("qma",),
                grid={"delta": [10.0]},
                fixed={"packets_per_node": 6, "warmup": 5.0},  # different fixed
                seeds=(0, 1),
            )
            runner.run(other)
            assert runner._pool is not executor
            fresh = _worker_pids()
            assert len(fresh) == 2 and not fresh & workers  # the old ones exited

    def test_serial_runner_never_creates_a_pool(self):
        runner = CampaignRunner(jobs=1)
        runner.run(_tiny_sweep())
        assert runner._pool is None

    def test_close_is_idempotent(self):
        runner = CampaignRunner(jobs=2)
        runner.run(_tiny_sweep())
        runner.close()
        runner.close()
        assert runner._pool is None

    def test_close_after_a_finished_run_lets_workers_exit(self, monkeypatch):
        """An idle pool is shut down, never terminated: its workers exit on
        their own and none is left behind."""
        terminated = _spy_terminate(monkeypatch)
        runner = CampaignRunner(jobs=2)
        runner.run(_tiny_sweep())
        runner.close()
        assert terminated == []
        assert multiprocessing.active_children() == []

    def test_abandoned_iterator_terminates_the_pool(self, monkeypatch):
        """Regression: walking away from iter_records must not leave the
        workers executing the submitted rest of the sweep in the background."""
        terminated = _spy_terminate(monkeypatch)
        runner = CampaignRunner(jobs=2)
        iterator = runner.iter_records(_tiny_sweep(seeds=tuple(range(8))))
        first = next(iterator)
        assert first.metrics
        workers = _worker_pids()
        iterator.close()
        assert runner._pool is None  # outstanding tasks died with the pool
        assert set(terminated) == workers
        assert multiprocessing.active_children() == []
        # The runner recovers: the next campaign re-warms a fresh pool.
        records = runner.run(_tiny_sweep()).records
        assert len(records) == 4
        runner.close()

    def test_at_most_two_chunks_per_worker_in_flight(self, monkeypatch):
        """Chunks are submitted as records are consumed, not all at once."""
        jobs, submitted = 2, []
        submit = concurrent.futures.ProcessPoolExecutor.submit

        def spy(executor, *args, **kwargs):
            submitted.append(args[1])
            return submit(executor, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", spy)
        sweep = _fast_sweep(seeds=tuple(range(64)))
        in_flight = []
        with CampaignRunner(jobs=jobs, chunksize=1) as runner:
            for consumed, _record in enumerate(runner.iter_records(sweep)):
                in_flight.append(len(submitted) - consumed)
        assert len(submitted) == sweep.size
        assert all(len(chunk) == 1 for chunk in submitted)
        assert max(in_flight) == 2 * jobs


class TestDeadWorker:
    def test_dead_worker_raises_instead_of_hanging(self):
        """A crashed worker's task never returns; the runner must raise
        (naming the exit code) instead of waiting for it forever."""
        errors = []
        runner = CampaignRunner(jobs=2, fault_plan=FaultPlan.from_spec("crash@seed=0"))

        def run():
            try:
                runner.run(_tiny_sweep())
            except WorkerDied as exc:
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "the runner hung on a dead worker"
        finally:
            runner.close()
            faults.install(None)
        assert len(errors) == 1
        assert "exited with code 86" in str(errors[0])
        assert runner._pool is None  # the busy pool was dropped
        assert multiprocessing.active_children() == []

    def test_killing_an_idle_worker_never_hangs_the_runner(self):
        """Regression: a worker killed while idle may hold a lock of the
        pool's task queue.  The next run must still return the serial
        records or raise ``WorkerDied``, and the teardown must not block
        on that lock.  Killing either idle worker is tried 20 times."""
        sweep = _fast_sweep()
        serial = CampaignRunner(jobs=1).run(sweep).records
        for attempt in range(20):
            runner = CampaignRunner(jobs=2)
            runner.run(sweep)
            victim = sorted(_worker_pids())[attempt % 2]
            os.kill(victim, signal.SIGKILL)
            outcome = {}

            def second_run():
                try:
                    outcome["records"] = runner.run(sweep).records
                except WorkerDied as exc:
                    outcome["died"] = str(exc)
                finally:
                    start = time.monotonic()
                    runner.close()
                    outcome["close_s"] = time.monotonic() - start

            watchdog = threading.Thread(target=second_run, daemon=True)
            watchdog.start()
            watchdog.join(timeout=60)
            assert not watchdog.is_alive(), f"try {attempt}: the runner hung"
            if "died" in outcome:
                assert f"pool worker {victim} exited with code -9" in outcome["died"]
            else:
                assert outcome["records"] == serial, f"try {attempt}"
            assert outcome["close_s"] < 10.0, f"try {attempt}: close took {outcome}"
            assert multiprocessing.active_children() == [], f"try {attempt}"


    def test_a_worker_that_died_idle_is_replaced_before_the_next_run(self):
        """No run was lost, so the next run starts on fresh workers and
        returns the serial records instead of failing on the dead one."""
        sweep = _fast_sweep()
        serial = CampaignRunner(jobs=1).run(sweep).records
        for attempt in range(6):  # either idle worker may hold a queue lock
            runner = CampaignRunner(jobs=2)
            runner.run(sweep)
            executor = runner._pool
            victim = list(runner._workers.values())[attempt % 2]
            os.kill(victim.pid, signal.SIGKILL)
            assert multiprocessing.connection.wait([victim.sentinel], timeout=10)
            outcome = {}

            def second_run():
                outcome["records"] = runner.run(sweep).records
                outcome["replaced"] = runner._pool is not executor
                runner.close()

            watchdog = threading.Thread(target=second_run, daemon=True)
            watchdog.start()
            watchdog.join(timeout=60)
            assert not watchdog.is_alive(), f"try {attempt}: the runner hung"
            assert outcome == {"records": serial, "replaced": True}, f"try {attempt}"
            assert multiprocessing.active_children() == [], f"try {attempt}"

    @pytest.mark.parametrize("breaker", ["crash", "close"])
    def test_teardown_never_waits_on_unread_chunks(self, breaker):
        """Regression: a worker lost while more than a pipe buffer of
        chunks waits unread in the executor's call queue must not leave
        the teardown waiting for the queue's writer (Python < 3.11.5 only
        closes that pipe's reader if the runner does).  One worker runs
        the first 5000-run chunk, the other hangs in the second, and the
        third is queued; the busy runner then loses a worker, to a crash
        or to ``close()`` from another thread."""
        sweep = _fast_sweep(seeds=tuple(range(15000)))
        queued = tuple(
            (s.mac, s.propagation, s.seed, {"delta": s.params["delta"]})
            for s in sweep.scenarios()[10000:]
        )
        assert len(pickle.dumps(queued)) > 65536  # beyond a default pipe buffer
        spec = "hang:1@seed=5001;crash@seed=5002" if breaker == "crash" else "hang:30@seed=5001"
        runner = CampaignRunner(jobs=2, chunksize=5000, fault_plan=FaultPlan.from_spec(spec))
        outcome = {}

        def run():
            try:
                runner.run(sweep)
            except WorkerDied as exc:
                outcome["died"] = str(exc)

        thread = threading.Thread(target=run, daemon=True)
        try:
            thread.start()
            if breaker == "close":
                deadline = time.monotonic() + 30
                while len(_worker_pids()) < 2 and time.monotonic() < deadline:
                    time.sleep(0.05)
                time.sleep(1.0)  # both workers busy, the third chunk queued
                closer = threading.Thread(target=runner.close, daemon=True)
                closer.start()
                closer.join(timeout=10)
                assert not closer.is_alive(), "close() hung on the queued chunk"
            thread.join(timeout=30)
            assert not thread.is_alive(), "the runner hung on the queued chunk"
        finally:
            faults.install(None)
        assert "died" in outcome
        if breaker == "crash":
            assert "exited with code 86" in outcome["died"]
        assert runner._pool is None
        assert multiprocessing.active_children() == []


class TestDeltaDispatchEquivalence:
    def test_chunked_delta_dispatch_matches_serial(self):
        sweep = _tiny_sweep()
        serial = CampaignRunner(jobs=1).run(sweep)
        with CampaignRunner(jobs=3, chunksize=4) as runner:
            chunked = runner.run(sweep)
        assert serial.records == chunked.records

    def test_explicit_scenario_list_matches_sweep_dispatch(self):
        sweep = _tiny_sweep()
        scenarios = sweep.scenarios()
        with CampaignRunner(jobs=2) as runner:
            from_sweep = runner.run(sweep)
            from_list = runner.run(scenarios)
        assert from_sweep.records == from_list.records


class TestScenarioTemplate:
    def test_template_of_sweep_round_trips_params(self):
        sweep = _tiny_sweep()
        template = ScenarioTemplate.of(sweep)
        scenario = sweep.scenarios()[0]
        rebuilt = Scenario(
            experiment=template.experiment,
            mac=scenario.mac,
            seed=scenario.seed,
            params={**dict(template.fixed), "delta": scenario.params["delta"]},
            propagation=scenario.propagation,
            metrics=template.metrics,
        )
        assert rebuilt == scenario
