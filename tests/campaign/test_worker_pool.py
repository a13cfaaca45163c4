"""Tests for the persistent warm worker pool and chunked dispatch.

The pool is an orchestration optimisation: records must be bit-identical
to serial execution for every worker count and chunk size, the pool must
be reused across calls (that is the point), and degenerate inputs (empty
sweeps, empty scenario lists) must yield nothing instead of touching the
pool machinery.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool

import pytest

from repro.campaign.runner import (
    CampaignRunner,
    ScenarioTemplate,
    resolve_chunksize,
)
from repro.campaign.spec import Scenario, Sweep


def _tiny_sweep(seeds=(0, 1), macs=("qma", "unslotted-csma")) -> Sweep:
    return Sweep(
        experiment="hidden-node",
        macs=macs,
        grid={"delta": [10.0]},
        fixed={"packets_per_node": 8, "warmup": 5.0},
        seeds=seeds,
    )


def _spy_terminate(monkeypatch):
    """Record every ``Pool.terminate`` call (the call still goes through)."""
    calls = []
    original = multiprocessing.pool.Pool.terminate

    def terminate(pool):
        calls.append(pool)
        original(pool)

    monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", terminate)
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
        with CampaignRunner(jobs=jobs) as runner:
            assert len(runner.stream([])) == 0


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
            raw_pool = runner._pool._pool
            assert raw_pool is not None
            second = runner.run(_tiny_sweep(seeds=(2, 3)))
            # Same template (experiment/fixed/metrics) -> same warm workers.
            assert runner._pool._pool is raw_pool
        assert first.records != second.records  # different seeds, real runs
        assert runner._pool is None  # context exit released the pool

    def test_pool_recreated_when_template_changes(self):
        with CampaignRunner(jobs=2) as runner:
            runner.run(_tiny_sweep())
            raw_pool = runner._pool._pool
            other = Sweep(
                experiment="hidden-node",
                macs=("qma",),
                grid={"delta": [10.0]},
                fixed={"packets_per_node": 6, "warmup": 5.0},  # different fixed
                seeds=(0, 1),
            )
            runner.run(other)
            assert runner._pool._pool is not raw_pool

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
        """An idle pool is closed and joined, never terminated: its workers
        exit on their own and none is left behind."""
        terminated = _spy_terminate(monkeypatch)
        runner = CampaignRunner(jobs=2)
        runner.run(_tiny_sweep())
        runner.close()
        assert terminated == []
        assert multiprocessing.active_children() == []

    def test_abandoned_iterator_terminates_the_pool(self, monkeypatch):
        """Regression: walking away from iter_records must not leave the
        imap feeder executing the rest of the sweep in the background."""
        terminated = _spy_terminate(monkeypatch)
        runner = CampaignRunner(jobs=2)
        iterator = runner.iter_records(_tiny_sweep(seeds=tuple(range(8))))
        first = next(iterator)
        assert first.metrics
        iterator.close()
        assert runner._pool is None  # outstanding tasks died with the pool
        assert len(terminated) == 1
        # The runner recovers: the next campaign re-warms a fresh pool.
        records = runner.run(_tiny_sweep()).records
        assert len(records) == 4
        runner.close()


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

    def test_keep_raw_travels_through_the_initializer(self):
        sweep = _tiny_sweep(seeds=(0,), macs=("qma", "unslotted-csma"))
        with CampaignRunner(jobs=2, keep_raw=True) as runner:
            records = runner.run(sweep).records
        assert all(record.raw is not None for record in records)


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
