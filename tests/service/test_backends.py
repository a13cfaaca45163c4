"""Dispatch backends: pool subset execution, loopback shards, factory."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.backends import PoolBackend, make_backend
from repro.service.faults import FaultPlan
from repro.service.journal import CheckpointJournal
from repro.service.remote import HostRegistry, LoopbackBackend, ShardFailure
from repro.service.shard_worker import main as shard_worker_main
from repro.service.supervisor import make_supervised

FIXED = {
    "packets_per_node": 2,
    "warmup": 0.2,
    "drain_time": 0.1,
    "management_period": 0.5,
}


@pytest.fixture(autouse=True)
def _clean_cache():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()


def make_sweep(seeds=3):
    return Sweep(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [50.0, 100.0]},
        fixed=FIXED,
        seeds=list(range(seeds)),
    )


def reference_records(sweep):
    with CampaignRunner() as runner:
        return [record.to_dict() for record in runner.run(sweep).records]


def run_via(backend, sweep, tmp_path, indices=None):
    journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
    try:
        backend.run(
            sweep,
            list(range(sweep.size)) if indices is None else indices,
            journal,
        )
        return {index: record.to_dict() for index, record in journal.iter_completed()}
    finally:
        journal.close()
        backend.close()


class TestPoolBackend:
    def test_full_run_matches_reference(self, tmp_path):
        sweep = make_sweep()
        merged = run_via(PoolBackend(), sweep, tmp_path)
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)

    def test_subset_matches_reference_slice(self, tmp_path):
        sweep = make_sweep()
        expected = reference_records(sweep)
        subset = [1, 3, 4]
        merged = run_via(PoolBackend(jobs=2), sweep, tmp_path, indices=subset)
        assert sorted(merged) == subset
        for index in subset:
            assert merged[index] == expected[index]

    def test_empty_pending_is_noop(self, tmp_path):
        sweep = make_sweep()
        assert run_via(PoolBackend(), sweep, tmp_path, indices=[]) == {}

    def test_on_record_fires_per_completion(self, tmp_path):
        sweep = make_sweep(seeds=1)
        seen = []
        journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
        backend = PoolBackend()
        try:
            backend.run(
                sweep,
                list(range(sweep.size)),
                journal,
                on_record=lambda index, record: seen.append(index),
            )
        finally:
            journal.close()
            backend.close()
        assert seen == list(range(sweep.size))


def _live_group_members(pgid):
    """Pids of non-zombie processes in process group ``pgid`` (Linux)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


class TestLoopbackShards:
    """``{"backend": "shard"}``: remote dispatch to one private local agent."""

    def test_merge_equals_reference(self, tmp_path):
        """Loopback shards merge bit-identically to a serial in-process run."""
        sweep = make_sweep()
        backend = make_backend({"backend": "shard", "shards": 2})
        merged = run_via(backend, sweep, tmp_path)
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)

    def test_more_shards_than_runs(self, tmp_path):
        sweep = make_sweep(seeds=1)  # 2 runs, 4 shards requested
        backend = make_backend({"backend": "shard", "shards": 4})
        merged = run_via(backend, sweep, tmp_path)
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)

    def test_worker_crash_surfaces_stderr(self, tmp_path):
        sweep = make_sweep(seeds=1)
        backend = LoopbackBackend(
            shards=1, fault_plan=FaultPlan.from_spec("crash@seed=0")
        )
        journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
        try:
            with pytest.raises(ShardFailure, match="status 86") as excinfo:
                backend.run(sweep, list(range(sweep.size)), journal)
        finally:
            journal.close()
            backend.close()
        assert "injected crash fault at crash[seed=0]" in excinfo.value.stderr_tail

    def test_retry_reruns_the_failed_job(self, tmp_path):
        """Same slice, same job id: the agent re-runs the failed worker."""
        sweep = make_sweep(seeds=1)
        backend = LoopbackBackend(
            shards=1, fault_plan=FaultPlan.from_spec("crash@delta=50.0")
        )
        journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
        try:
            with pytest.raises(ShardFailure):
                backend.run(sweep, [0], journal)
            backend.run(sweep, [0], journal)  # the crash fault is spent
            merged = {i: r.to_dict() for i, r in journal.iter_completed()}
        finally:
            journal.close()
            backend.close()
        assert merged == {0: reference_records(sweep)[0]}

    def test_agent_crash_degrades_to_pool(self, tmp_path):
        sweep = make_sweep(seeds=2)
        events = []
        backend = make_supervised(
            {
                "backend": "shard",
                "shards": 2,
                "faults": "agent-crash@shard=0",
                "backend_attempts": 1,
                "backoff_base": 0.0,
            },
            on_event=events.append,
        )
        merged = run_via(backend, sweep, tmp_path)
        assert [merged[i] for i in range(sweep.size)] == reference_records(sweep)
        degrades = [event for event in events if event["kind"] == "degrade"]
        assert [(e["from_backend"], e["to_backend"]) for e in degrades] == [
            ("shard", "pool")
        ]

    @staticmethod
    def _hung_dispatch(backend, sweep, journal, errors):
        """Run ``backend`` in a thread until both shard workers are up."""

        def dispatch():
            try:
                backend.run(sweep, list(range(sweep.size)), journal)
            except Exception as exc:
                errors.append(exc)

        runner = threading.Thread(target=dispatch)
        runner.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            # The agent plus one hung worker per shard.
            agent = backend.agent
            if agent is not None and len(_live_group_members(agent.pid)) >= 3:
                return runner
            time.sleep(0.05)
        pytest.fail("shard workers never started")

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("stop", ["abort", "close"])
    def test_stop_ends_shard_workers(self, tmp_path, stop):
        """abort stops the agent's workers; close also kills the agent."""
        sweep = make_sweep(seeds=1)  # 2 runs, both hung
        backend = LoopbackBackend(
            shards=2,
            fault_plan=FaultPlan.from_spec("hang:60@delta=50.0;hang:60@delta=100.0"),
        )
        journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
        errors = []
        try:
            runner = self._hung_dispatch(backend, sweep, journal, errors)
            agent, workdir = backend.agent, backend.workdir
            getattr(backend, stop)()
            runner.join(timeout=60)
            assert not runner.is_alive()
            if stop == "abort":
                deadline = time.monotonic() + 10
                while len(_live_group_members(agent.pid)) > 1:
                    assert time.monotonic() < deadline, "workers outlived abort"
                    time.sleep(0.05)
                assert agent.poll() is None
                assert errors == []
        finally:
            journal.close()
            backend.close()
        assert agent.poll() is not None
        assert _live_group_members(agent.pid) == []
        assert not os.path.exists(workdir)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            make_backend({"backend": "shard", "shards": 0})


class TestShardWorker:
    def test_usage_error(self, capsys):
        assert shard_worker_main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_worker_resumes_own_journal(self, tmp_path):
        """Re-running a shard worker job skips already-journalled runs."""
        import json

        sweep = make_sweep(seeds=1)
        journal_path = str(tmp_path / "shard.jsonl")
        job_path = str(tmp_path / "job.json")
        with open(job_path, "w") as handle:
            json.dump(
                {
                    "sweep": sweep.to_dict(),
                    "indices": list(range(sweep.size)),
                    "journal": journal_path,
                    "shard": {"index": 0, "of": 1},
                    "options": {"jobs": 1},
                },
                handle,
            )
        assert shard_worker_main([job_path]) == 0
        first = CheckpointJournal.open(journal_path)
        completed = {i: r.to_dict() for i, r in first.iter_completed()}
        first.close()
        assert sorted(completed) == list(range(sweep.size))
        # Second invocation must be a no-op resume, not a duplicate append.
        assert shard_worker_main([job_path]) == 0
        second = CheckpointJournal.open(journal_path)
        assert {i: r.to_dict() for i, r in second.iter_completed()} == completed
        assert len(second) == sweep.size
        second.close()


class TestMakeBackend:
    def test_default_is_pool(self):
        backend = make_backend()
        assert isinstance(backend, PoolBackend)
        backend.close()

    def test_shard_kind(self):
        shared = HostRegistry()
        backend = make_backend(
            {"backend": "shard", "shards": 3}, host_registry=shared
        )
        assert isinstance(backend, LoopbackBackend)
        assert backend.name == "shard"
        assert backend.shards == 3
        assert backend.registry is not shared  # never listed by `hosts`
        backend.close()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            make_backend({"backend": "teleport"})

    @pytest.mark.parametrize(
        "options",
        [{"backend": "pool", "sharding": 2}, {"backend": "shard", "python": "python3"}],
        ids=["pool-sharding", "shard-python"],
    )
    def test_unknown_option_rejected(self, options):
        with pytest.raises(ValueError, match="unknown option"):
            make_backend(options)

    def test_pool_options_forwarded(self):
        backend = make_backend({"jobs": 2, "batch_seeds": 4, "throttle": 0.5})
        assert backend.throttle == 0.5
        backend.close()
