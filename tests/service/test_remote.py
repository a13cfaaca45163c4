"""Cross-host dispatch: agents, host health, stream merging, chaos matrix.

The robustness contracts of :mod:`repro.service.remote`:

* hosts declarations are validated up front (line numbers, duplicate
  detection) and ``make_backend`` errors name the valid backends and the
  option source;
* the journal stream merger survives a connection torn at *every* byte
  offset of a completion line — the re-attach resumes at the last fully
  processed byte, recomputing nothing and duplicating nothing;
* an agent SIGKILLed mid-campaign loses nothing: its slice is
  reassigned to the surviving host and the merged records reproduce the
  literal digests of :data:`PINNED` (so a change that moves the remote
  path and an in-process run alike still fails);
* a shard worker that crashes raises :class:`ShardFailure` with its
  stderr tail, a retry of the same slice re-runs it, and ``abort`` stops
  the agent's shard workers;
* injected network faults (``drop-stream``, ``partition``,
  ``slow-link``, ``agent-crash``) heal through transport retry, host
  quarantine and slice reassignment — and when every host is gone the
  supervision ladder degrades remote -> pool and still finishes.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time

import pytest

from repro.campaign.spec import Sweep
from repro.scenario import ARTIFACT_CACHE
from repro.service.agent import AgentServer, CampaignAgent, spawn_agent
from repro.service.backends import PoolBackend, make_backend
from repro.service.client import ServiceClient
from repro.service.faults import FaultPlan
from repro.service.journal import CheckpointJournal, JournalError
from repro.service.manifest import record_digest
from repro.service.remote import (
    HostRegistry,
    HostSpec,
    JournalStreamMerger,
    RemoteBackend,
    RemoteDispatchError,
    ShardFailure,
    StreamProtocolError,
    parse_host_entry,
    parse_hosts,
    parse_hosts_file,
)
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


#: ``record_digest`` of every run of ``make_sweep(seeds=4)``, keyed by
#: ``(delta, seed)``; smaller ``make_sweep`` calls expand to a subset.
PINNED = {
    (50.0, 0): "a2af1f141f450604",
    (50.0, 1): "6b5db2b6dbb2fab2",
    (50.0, 2): "5ce1c546633a8478",
    (50.0, 3): "354da64c16fde64e",
    (100.0, 0): "a19c51629e16c85d",
    (100.0, 1): "7482f2326ec103a7",
    (100.0, 2): "7d204448922917e3",
    (100.0, 3): "74612edc66ac60da",
}


def assert_pinned(sweep, merged, indices=None):
    """The merged records of ``indices`` (default: all) match :data:`PINNED`."""
    scenarios = list(sweep)
    indices = range(sweep.size) if indices is None else indices
    got = {i: record_digest(merged[i]) for i in merged}
    want = {
        i: PINNED[(scenarios[i].params["delta"], scenarios[i].seed)] for i in indices
    }
    assert got == want


def run_via(backend, sweep, tmp_path, name="b.jsonl", indices=None):
    journal = CheckpointJournal.create(str(tmp_path / name), sweep)
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


@pytest.fixture()
def agents(tmp_path):
    """Two in-process localhost agents; yields their HOST:PORT*CAP entries."""
    servers = []
    hosts = []
    for i in range(2):
        agent = CampaignAgent(workdir=str(tmp_path / f"agent{i}"), name=f"a{i}")
        server = AgentServer(agent)
        host, port = server.start()
        servers.append(server)
        hosts.append(f"{host}:{port}*2")
    yield hosts
    for server in servers:
        server.stop()


# ------------------------------------------------------------ host parsing


class TestHostParsing:
    def test_entry_forms(self):
        assert parse_host_entry("127.0.0.1:9000") == HostSpec("127.0.0.1", 9000, 1)
        assert parse_host_entry("node-a:8000*4") == HostSpec("node-a", 8000, 4)

    @pytest.mark.parametrize(
        "bad", ["127.0.0.1", "host:port", "host:9000*x", "host:9000*0", "host:70000"]
    )
    def test_invalid_entries_raise(self, bad):
        with pytest.raises(ValueError):
            parse_host_entry(bad)

    def test_hosts_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("# fleet\n127.0.0.1:9000*2\n\nnot-a-host\n")
        with pytest.raises(ValueError, match=r"line 4"):
            parse_hosts_file(str(path))

    def test_hosts_file_parses_comments_and_caps(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("# fleet\n127.0.0.1:9000*2  # big box\n127.0.0.1:9001\n")
        assert parse_hosts_file(str(path)) == [
            HostSpec("127.0.0.1", 9000, 2),
            HostSpec("127.0.0.1", 9001, 1),
        ]

    def test_parse_hosts_mixes_inline_and_file(self, tmp_path):
        path = tmp_path / "hosts"
        path.write_text("127.0.0.1:9001\n")
        specs = parse_hosts(["127.0.0.1:9000*2", f"@{path}"])
        assert [spec.key for spec in specs] == ["127.0.0.1:9000", "127.0.0.1:9001"]

    def test_duplicates_and_empty_rejected(self):
        with pytest.raises(ValueError, match="duplicate host"):
            parse_hosts(["h:1", "h:1*2"])
        with pytest.raises(ValueError, match="no hosts declared"):
            parse_hosts([])

    def test_error_names_the_source(self):
        with pytest.raises(ValueError, match=re.escape("submit options")):
            parse_hosts(["nope:xx"], source="submit options")


class TestMakeBackendErrors:
    def test_unknown_backend_lists_valid_kinds_and_source(self):
        with pytest.raises(ValueError) as excinfo:
            make_backend({"backend": "bogus"}, source="--backend")
        message = str(excinfo.value)
        assert "unknown dispatch backend 'bogus'" in message
        assert "(from --backend)" in message
        assert "['pool', 'remote', 'serial']" in message

    def test_unknown_option_names_source(self):
        with pytest.raises(ValueError) as excinfo:
            make_backend(
                {"backend": "remote", "hosts": ["h:1"], "bogus": 1},
                source="submit options",
            )
        message = str(excinfo.value)
        assert "unknown option(s) ['bogus']" in message
        assert "(from submit options)" in message

    def test_remote_requires_hosts(self):
        with pytest.raises(ValueError, match="no hosts declared"):
            make_backend({"backend": "remote"})


# ------------------------------------------------------------ host registry


class TestHostRegistry:
    def test_quarantine_after_consecutive_failures(self):
        registry = HostRegistry([HostSpec("h", 1)], max_failures=2, probation=60.0)
        assert registry.failure("h:1", "boom") is False
        assert registry.has_available()
        assert registry.failure("h:1", "boom") is True
        assert not registry.has_available()
        assert registry.acquire() is None
        snapshot = registry.snapshot()[0]
        assert snapshot["state"] == "quarantined"
        assert [event["kind"] for event in snapshot["events"]].count("quarantine") == 1

    def test_probation_expires_and_success_heals(self):
        registry = HostRegistry([HostSpec("h", 1)], max_failures=1, probation=0.05)
        registry.failure("h:1", "boom")
        assert registry.acquire() is None
        time.sleep(0.08)
        assert registry.acquire() == HostSpec("h", 1)
        registry.success("h:1")
        assert registry.snapshot()[0]["state"] == "healthy"
        assert registry.snapshot()[0]["failures"] == 0

    def test_acquire_respects_caps_and_load(self):
        registry = HostRegistry([HostSpec("a", 1, cap=1), HostSpec("b", 2, cap=2)])
        leases = [registry.acquire() for _ in range(3)]
        assert sorted(spec.key for spec in leases) == ["a:1", "b:2", "b:2"]
        assert registry.acquire() is None  # all caps exhausted
        registry.release("b:2")
        assert registry.acquire().key == "b:2"


# ----------------------------------------------------------- stream merging


def _stream_bytes(sweep, tmp_path):
    """Raw shard-journal bytes (header + completions) for merger tests."""
    source = CheckpointJournal.create(str(tmp_path / "src.jsonl"), sweep)
    backend = PoolBackend()
    try:
        backend.run(sweep, list(range(sweep.size)), source)
    finally:
        source.close()
        backend.close()
    with open(tmp_path / "src.jsonl", "rb") as handle:
        return handle.read()


class TestJournalStreamMerger:
    def test_single_feed_merges_everything(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        merger.feed(0, raw)
        assert merger.merged == sweep.size
        assert merger.complete == len(raw)
        assert journal.pending_indices() == []
        journal.close()

    def test_reconnect_fuzz_at_every_byte_of_final_line(self, tmp_path):
        """Mirror of the journal torn-write fuzz, applied to the stream.

        The connection drops at every byte offset of the final completion
        line (and a sample of earlier offsets); the re-attach resumes at
        ``merger.complete`` and the merged journal is always complete,
        with no run merged twice.
        """
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        body = raw[: raw.rstrip(b"\n").rfind(b"\n") + 1]
        final_start = len(body)
        assert len(raw) - final_start > 100

        cuts = sorted(
            set(range(final_start, len(raw)))
            | set(range(0, final_start, max(1, final_start // 23)))
        )
        for cut in cuts:
            journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
            merger = JournalStreamMerger(journal, threading.Lock())
            merger.feed(0, raw[:cut])
            # Connection drops here; the dispatcher reconnects and the
            # agent resumes from the last fully processed byte.
            merger.reset(merger.complete)
            merger.feed(merger.complete, raw[merger.complete:])
            assert merger.merged == sweep.size, f"cut at byte {cut}"
            assert journal.pending_indices() == [], f"cut at byte {cut}"
            journal.close()

    def test_restart_from_zero_skips_already_merged(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        merger.feed(0, raw)
        first = merger.merged
        # Agent restarted: new stream token, offset 0 — every line is
        # re-fed but nothing is appended twice.
        merger.reset(0)
        merger.feed(0, raw)
        assert merger.merged == first
        assert len(dict(journal.iter_completed())) == sweep.size
        journal.close()

    def test_offset_gap_is_a_protocol_error(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        with pytest.raises(StreamProtocolError):
            merger.feed(10, raw[10:])
        journal.close()

    def test_corrupted_record_digest_is_rejected(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        lines = raw.splitlines(keepends=True)
        data = json.loads(lines[-1])
        metric = next(iter(data["record"]["metrics"]))
        data["record"]["metrics"][metric] += 1.0  # digest now stale
        lines[-1] = json.dumps(data).encode("utf-8") + b"\n"
        tampered = b"".join(lines)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), sweep)
        merger = JournalStreamMerger(journal, threading.Lock())
        with pytest.raises(JournalError, match="digest mismatch"):
            merger.feed(0, tampered)
        journal.close()

    def test_wrong_spec_digest_header_is_rejected(self, tmp_path):
        sweep = make_sweep(seeds=2)
        raw = _stream_bytes(sweep, tmp_path)
        other = make_sweep(seeds=3)
        journal = CheckpointJournal.create(str(tmp_path / "dst.jsonl"), other)
        merger = JournalStreamMerger(journal, threading.Lock())
        with pytest.raises(JournalError, match="spec digest"):
            merger.feed(0, raw)
        journal.close()


# ------------------------------------------------------------- agent loss


class TestAgentLoss:
    def test_sigkilled_agent_slice_is_reassigned(self, tmp_path):
        sweep = make_sweep(seeds=4)
        procs = []
        try:
            victim, victim_host = spawn_agent(str(tmp_path / "victim"), name="victim")
            survivor, survivor_host = spawn_agent(str(tmp_path / "survivor"), name="survivor")
            procs = [victim, survivor]
            journal = CheckpointJournal.create(str(tmp_path / "kill.jsonl"), sweep)
            backend = RemoteBackend(
                [victim_host, survivor_host],
                transport_attempts=2,
                host_failures=1,
                probation=60.0,
                io_timeout=10.0,
            )
            runner = threading.Thread(
                target=backend.run, args=(sweep, list(range(sweep.size)), journal)
            )
            runner.start()
            time.sleep(1.0)
            victim.send_signal(signal.SIGKILL)
            runner.join(timeout=180)
            assert not runner.is_alive()
            merged = {i: r.to_dict() for i, r in journal.iter_completed()}
            journal.close()
            backend.close()
            assert_pinned(sweep, merged)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()


# ------------------------------------------------------ shard worker faults


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


@pytest.fixture()
def spawned_agent(tmp_path):
    """One ``spawn_agent`` subprocess; yields ``(proc, "HOST:PORT")``."""
    proc, address = spawn_agent(str(tmp_path / "agent"), name="spawned")
    yield proc, address
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # the agent leads its own group
    except OSError:
        pass
    proc.wait()


class TestShardWorkerFaults:
    """A shard worker that crashes or hangs on a spawned agent."""

    def test_worker_crash_surfaces_stderr(self, tmp_path, spawned_agent):
        _proc, address = spawned_agent
        sweep = make_sweep(seeds=1)
        backend = RemoteBackend(
            [f"{address}*1"], fault_plan=FaultPlan.from_spec("crash@seed=0")
        )
        journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
        try:
            with pytest.raises(ShardFailure, match="status 86") as excinfo:
                backend.run(sweep, list(range(sweep.size)), journal)
        finally:
            journal.close()
            backend.close()
        assert "injected crash fault at crash[seed=0]" in excinfo.value.stderr_tail

    def test_retry_reruns_the_failed_job(self, tmp_path, spawned_agent):
        """Same slice, same job id: the agent re-runs the failed worker."""
        _proc, address = spawned_agent
        sweep = make_sweep(seeds=1)
        backend = RemoteBackend(
            [f"{address}*1"], fault_plan=FaultPlan.from_spec("crash@delta=50.0")
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
        assert_pinned(sweep, merged, [0])

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_abort_ends_shard_workers(self, tmp_path, spawned_agent):
        """abort stops the agent's shard workers and leaves the agent up."""
        proc, address = spawned_agent
        sweep = make_sweep(seeds=1)  # 2 runs, both hung
        backend = RemoteBackend(
            [f"{address}*2"],
            fault_plan=FaultPlan.from_spec("hang:60@delta=50.0;hang:60@delta=100.0"),
        )
        journal = CheckpointJournal.create(str(tmp_path / "b.jsonl"), sweep)
        errors = []

        def dispatch():
            try:
                backend.run(sweep, list(range(sweep.size)), journal)
            except Exception as exc:
                errors.append(exc)

        runner = threading.Thread(target=dispatch)
        try:
            runner.start()
            deadline = time.monotonic() + 30
            # The agent plus one hung worker per shard.
            while len(_live_group_members(proc.pid)) < 3:
                assert time.monotonic() < deadline, "shard workers never started"
                time.sleep(0.05)
            backend.abort()
            runner.join(timeout=60)
            assert not runner.is_alive()
            deadline = time.monotonic() + 10
            while len(_live_group_members(proc.pid)) > 1:
                assert time.monotonic() < deadline, "workers outlived abort"
                time.sleep(0.05)
            assert proc.poll() is None
            assert errors == []
        finally:
            journal.close()
            backend.close()


# ------------------------------------------------------------ chaos matrix


class TestNetworkFaults:
    def test_drop_stream_resumes_at_byte_offset(self, tmp_path, agents):
        sweep = make_sweep(seeds=3)
        plan = FaultPlan.from_spec("drop-stream@after=2")
        merged = run_via(
            RemoteBackend(agents, fault_plan=plan), sweep, tmp_path, "drop.jsonl"
        )
        assert_pinned(sweep, merged)

    def test_partition_quarantines_host_and_heals(self, tmp_path, agents):
        sweep = make_sweep(seeds=3)
        victim = agents[0].rpartition("*")[0]
        plan = FaultPlan.from_spec(f"partition:{victim}@after=5")
        backend = RemoteBackend(
            agents, fault_plan=plan, transport_attempts=2,
            host_failures=1, probation=60.0,
        )
        merged = run_via(backend, sweep, tmp_path, "part.jsonl")
        assert_pinned(sweep, merged)
        states = {row["key"]: row["state"] for row in backend.registry.snapshot()}
        assert states[victim] == "quarantined"
        events = next(
            row for row in backend.registry.snapshot() if row["key"] == victim
        )["events"]
        assert "quarantine" in [event["kind"] for event in events]

    def test_all_hosts_partitioned_raises(self, tmp_path, agents):
        sweep = make_sweep(seeds=2)
        plan = FaultPlan.from_spec("partition@after=99")
        backend = RemoteBackend(
            agents, fault_plan=plan, transport_attempts=1,
            host_failures=1, probation=120.0,
        )
        journal = CheckpointJournal.create(str(tmp_path / "all.jsonl"), sweep)
        try:
            with pytest.raises(RemoteDispatchError, match="quarantined"):
                backend.run(sweep, list(range(sweep.size)), journal)
        finally:
            journal.close()
            backend.close()

    def test_slow_link_stalls_without_losing_runs(self, tmp_path, agents):
        sweep = make_sweep(seeds=2)
        plan = FaultPlan.from_spec("slow-link:1.0")
        merged = run_via(
            RemoteBackend(agents, fault_plan=plan), sweep, tmp_path, "slow.jsonl"
        )
        assert_pinned(sweep, merged)

    def test_agent_crash_fault_kills_box_and_run_heals(self, tmp_path):
        sweep = make_sweep(seeds=3)
        procs = []
        try:
            first, first_host = spawn_agent(str(tmp_path / "doomed"), name="doomed")
            second, second_host = spawn_agent(str(tmp_path / "steady"), name="steady")
            procs = [first, second]
            plan = FaultPlan.from_spec("agent-crash@shard=0")
            backend = RemoteBackend(
                [first_host, second_host],
                fault_plan=plan,
                transport_attempts=2,
                host_failures=1,
                probation=60.0,
            )
            merged = run_via(backend, sweep, tmp_path, "crash.jsonl")
            assert_pinned(sweep, merged)
            # Exactly one agent died (whichever drew shard 0).
            time.sleep(0.2)
            assert sum(1 for proc in procs if proc.poll() is not None) == 1
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()


class TestSupervisionLadder:
    def test_unreachable_hosts_degrade_to_pool(self, tmp_path):
        sweep = make_sweep(seeds=2)
        events = []
        backend = make_supervised(
            {
                "backend": "remote",
                "hosts": ["127.0.0.1:9", "127.0.0.1:10"],  # discard ports
                "connect_timeout": 0.2,
                "transport_attempts": 1,
                "host_failures": 1,
                "probation": 300.0,
                "backend_attempts": 1,
                "backoff_base": 0.0,
            },
            on_event=events.append,
        )
        merged = run_via(backend, sweep, tmp_path, "ladder.jsonl")
        assert_pinned(sweep, merged)
        degrades = [event for event in events if event["kind"] == "degrade"]
        assert degrades and degrades[0]["from_backend"] == "remote"
        assert degrades[0]["to_backend"] == "pool"


class TestClientRetry:
    def test_transient_errors_are_retried(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, retries=3)
        calls = {"n": 0}

        def flaky(method, target, payload=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionResetError("blip")
            return [{"ok": True}]

        monkeypatch.setattr(client, "_attempt", flaky)
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        assert client.health() == {"ok": True}
        assert calls["n"] == 3

    def test_retries_one_fails_fast(self, monkeypatch):
        client = ServiceClient("127.0.0.1", 1, retries=1)
        calls = {"n": 0}

        def always_down(method, target, payload=None):
            calls["n"] += 1
            raise ConnectionRefusedError("down")

        monkeypatch.setattr(client, "_attempt", always_down)
        with pytest.raises(ConnectionRefusedError):
            client.health()
        assert calls["n"] == 1

    def test_service_errors_are_not_retried(self, monkeypatch):
        from repro.service.client import ServiceError

        client = ServiceClient("127.0.0.1", 1, retries=3)
        calls = {"n": 0}

        def answered(method, target, payload=None):
            calls["n"] += 1
            raise ServiceError(404, "unknown job")

        monkeypatch.setattr(client, "_attempt", answered)
        with pytest.raises(ServiceError):
            client.status("job-1")
        assert calls["n"] == 1
