"""Supervision chaos matrix: injected faults never break bit-identity.

The contract under test is the fault-tolerance design's hard one: a
supervised campaign hit by worker crashes, run hangs, torn journal
tails or poison runs either completes with records bit-identical to a
fault-free run, or ends ``partial`` with every missing run explained in
the quarantine file — never a hang, never an unhandled traceback.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service import faults
from repro.service.checkpoint import run_checkpointed
from repro.service.faults import FaultPlan
from repro.service.supervisor import (
    RetryPolicy,
    load_quarantine,
    make_supervised,
    quarantine_path,
    retry_quarantined,
)

FIXED = {
    "packets_per_node": 2,
    "warmup": 0.2,
    "drain_time": 0.1,
    "management_period": 0.5,
}

#: Supervision options shared by every chaos run: no backoff sleeps (the
#: retries themselves are the point), a short run timeout so hang faults
#: are bounded by the watchdog rather than the test timeout, and real
#: worker processes (crash faults only fire in marked workers — with
#: jobs=1 the pool executes in-process and they are skipped by design).
FAST = {"backoff_base": 0.0, "run_timeout": 3.0, "jobs": 2}


@pytest.fixture(autouse=True)
def _clean_state():
    ARTIFACT_CACHE.clear()
    yield
    ARTIFACT_CACHE.clear()
    faults.install(None)


def make_sweep(seeds=(0, 1, 2)):
    return Sweep(
        experiment="hidden-node",
        macs=["unslotted-csma"],
        grid={"delta": [50.0, 100.0]},
        fixed=FIXED,
        seeds=list(seeds),
    )


def run_supervised(tmp_path, name, options, sweep=None):
    backend = make_supervised(dict(options))
    try:
        outcome = run_checkpointed(
            sweep or make_sweep(), str(tmp_path / name), backend=backend, collect=True
        )
    finally:
        backend.close()
    return outcome, backend


def baseline_records(tmp_path):
    outcome, _backend = run_supervised(tmp_path, "baseline.jsonl", {"backoff_base": 0.0})
    assert outcome.status == "complete"
    return [record.to_dict() for record in outcome.records]


class TestFaultFree:
    def test_supervised_matches_unsupervised(self, tmp_path):
        supervised, backend = run_supervised(tmp_path, "sup.jsonl", FAST)
        raw = run_checkpointed(
            make_sweep(), str(tmp_path / "raw.jsonl"), collect=True
        )
        assert supervised.status == "complete"
        assert backend.events == []
        assert [r.to_dict() for r in supervised.records] == [
            r.to_dict() for r in raw.records
        ]


class TestChaosMatrix:
    @pytest.mark.parametrize(
        "fault_spec",
        [
            "crash@seed=2",
            "hang:60@seed=0",
            "torn@after=3",
            "crash@seed=1;torn@after=2",
        ],
        ids=["crash", "hang", "torn-tail", "crash+torn"],
    )
    def test_faults_recover_bit_identically(self, tmp_path, fault_spec):
        baseline = baseline_records(tmp_path)
        outcome, backend = run_supervised(
            tmp_path, "chaos.jsonl", {**FAST, "faults": fault_spec}
        )
        assert outcome.status == "complete"
        assert outcome.quarantined == []
        assert [r.to_dict() for r in outcome.records] == baseline
        # At least one supervision event must record what happened; the
        # journal carries the same audit trail for post-mortems.
        assert any(e["kind"] == "retry" for e in backend.events)

    def test_dead_pool_worker_retried_without_run_timeout(self, tmp_path):
        """No watchdog runs without ``run_timeout``: the pool itself must
        notice the crashed worker, or the attempt waits forever."""
        baseline = baseline_records(tmp_path)
        options = {key: value for key, value in FAST.items() if key != "run_timeout"}
        outcome, backend = run_supervised(
            tmp_path, "no-timeout.jsonl", {**options, "faults": "crash@seed=2"}
        )
        assert outcome.status == "complete"
        assert [r.to_dict() for r in outcome.records] == baseline
        retries = [e for e in backend.events if e["kind"] == "retry"]
        assert retries and "exited with code 86" in retries[0]["error"]

    def test_degrades_to_serial_when_tier_budget_exhausted(self, tmp_path):
        baseline = baseline_records(tmp_path)
        # With a one-attempt tier budget the pool's crash immediately
        # exhausts it: the supervisor must fall back to the serial tier
        # and still finish the campaign there.
        outcome, backend = run_supervised(
            tmp_path,
            "degrade.jsonl",
            {**FAST, "faults": "crash@seed=0", "backend_attempts": 1},
        )
        assert outcome.status == "complete"
        kinds = [event["kind"] for event in backend.events]
        assert "degrade" in kinds
        degrade = next(e for e in backend.events if e["kind"] == "degrade")
        assert degrade["to_backend"] == "serial"
        assert [r.to_dict() for r in outcome.records] == baseline


class TestQuarantine:
    def test_poison_runs_quarantined_campaign_partial(self, tmp_path):
        baseline = baseline_records(tmp_path)
        journal = str(tmp_path / "poison.jsonl")
        backend = make_supervised(
            {"backoff_base": 0.0, "faults": "poison@seed=1", "max_attempts": 2}
        )
        try:
            outcome = run_checkpointed(make_sweep(), journal, backend=backend, collect=True)
        finally:
            backend.close()
        assert outcome.status == "partial"
        # seed=1 appears once per delta value: expansion indices 1 and 4.
        assert outcome.quarantined == [1, 4]
        # The healthy runs stream through in expansion order, bit-identical.
        healthy = [d for i, d in enumerate(baseline) if i not in (1, 4)]
        assert [r.to_dict() for r in outcome.records] == healthy

        entries = load_quarantine(quarantine_path(journal))
        assert [entry["index"] for entry in entries] == [1, 4]
        for entry in entries:
            assert entry["seed"] == 1
            assert entry["spec_digest"] == outcome.spec_digest
            assert len(entry["attempts"]) >= 2
            assert "InjectedPoisonError" in entry["traceback"]

    def test_retry_quarantined_completes_bit_identically(self, tmp_path):
        baseline = baseline_records(tmp_path)
        journal = str(tmp_path / "poison.jsonl")
        backend = make_supervised(
            {"backoff_base": 0.0, "faults": "poison@seed=1", "max_attempts": 2}
        )
        try:
            run_checkpointed(make_sweep(), journal, backend=backend)
        finally:
            backend.close()
        # The fault plan is gone on retry (the operator fixed the cause).
        count, outcome = retry_quarantined(
            journal, {"backoff_base": 0.0}, collect=True
        )
        assert count == 2
        assert outcome.status == "complete"
        assert [r.to_dict() for r in outcome.records] == baseline
        # Healing clears the quarantine file.
        assert load_quarantine(quarantine_path(journal)) == []

    def test_still_poisoned_retry_stays_partial(self, tmp_path):
        journal = str(tmp_path / "poison.jsonl")
        options = {"backoff_base": 0.0, "faults": "poison@seed=1", "max_attempts": 2}
        backend = make_supervised(dict(options))
        try:
            run_checkpointed(make_sweep(), journal, backend=backend)
        finally:
            backend.close()
        count, outcome = retry_quarantined(journal, dict(options))
        assert count == 2
        assert outcome.status == "partial"
        assert outcome.quarantined == [1, 4]


class TestCancellation:
    def test_cancel_mid_campaign_then_resume(self, tmp_path):
        baseline = baseline_records(tmp_path)
        journal = str(tmp_path / "cancel.jsonl")
        backend = make_supervised({"backoff_base": 0.0, "throttle": 0.2})
        cancelled = threading.Event()

        def on_record(index, record):
            if not cancelled.is_set():
                cancelled.set()
                backend.cancel()

        try:
            outcome = run_checkpointed(
                make_sweep(), journal, backend=backend, on_record=on_record
            )
        finally:
            backend.close()
        assert outcome.status == "cancelled"
        assert 0 < outcome.executed < 6

        resumed = run_checkpointed(make_sweep(), journal, collect=True)
        assert resumed.status == "complete"
        assert resumed.resumed == outcome.executed
        assert [r.to_dict() for r in resumed.records] == baseline


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_max=4.0, jitter=0.1)
        first = [policy.backoff(n, random.Random(7)) for n in range(1, 8)]
        second = [policy.backoff(n, random.Random(7)) for n in range(1, 8)]
        assert first == second
        assert all(delay <= 4.0 * 1.1 for delay in first)
        assert first[0] < first[1] < first[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backend_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(run_timeout=-1.0)


class TestOptionsPlumbing:
    def test_make_supervised_rejects_unknown_backend_options(self):
        with pytest.raises(ValueError):
            make_supervised({"bogus": 1}).close()

    def test_no_supervise_returns_raw_backend(self):
        backend = make_supervised({"supervise": False})
        try:
            assert type(backend).__name__ == "PoolBackend"
        finally:
            backend.close()

    def test_faults_accepts_spec_string_and_dict(self):
        plan = FaultPlan.from_spec("poison@seed=1")
        for faults_option in ("poison@seed=1", plan.to_dict()):
            backend = make_supervised({"faults": faults_option})
            try:
                assert backend.fault_plan is not None
            finally:
                backend.close()
