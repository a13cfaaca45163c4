"""Dispatch backends: pool subset execution, shard workers, factory."""

from __future__ import annotations

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.backends import PoolBackend, make_backend
from repro.service.journal import CheckpointJournal
from repro.service.shard_worker import main as shard_worker_main

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch backend"):
            make_backend({"backend": "teleport"})

    @pytest.mark.parametrize(
        "options",
        [{"backend": "pool", "sharding": 2}, {"backend": "remote", "python": "python3"}],
        ids=["pool-sharding", "remote-python"],
    )
    def test_unknown_option_rejected(self, options):
        with pytest.raises(ValueError, match="unknown option"):
            make_backend(options)

    def test_pool_options_forwarded(self):
        backend = make_backend({"jobs": 2, "batch_seeds": 4, "throttle": 0.5})
        assert backend.throttle == 0.5
        backend.close()
