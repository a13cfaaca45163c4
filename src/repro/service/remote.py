"""Shard dispatch: campaign agents, host health, stream merging.

:class:`RemoteBackend` ships shard job documents
(:func:`~repro.service.manifest.shard_job_document`) to
:mod:`repro.service.agent` processes, streams each shard's journal bytes
back incrementally, and merges completions through the digest-verified
journal path.  Run identity is (spec digest, expansion index, seed), so
any mix of retries, reconnects and host reassignment yields output
bit-identical to a single-host run.  ``--hosts`` names the agents.

Robustness model, layer by layer:

* **Host health** (:class:`HostRegistry`): every transport-level failure
  against a host counts; ``max_failures`` consecutive ones quarantine it
  for a ``probation`` window, after which it is probed again.  A dead box
  degrades throughput instead of failing the sweep — and if *every* host
  is quarantined, the backend raises so the supervision ladder can
  degrade to the local pool.
* **Transport retry**: each shard's stream is retried against its host
  (:func:`repro.service.wire.retry`, the supervisor's exponential
  backoff) before the host is charged a failure and the slice is
  requeued for any healthy host.
* **Byte-offset resume** (:class:`JournalStreamMerger`): the merger
  remembers the byte offset of the last fully processed journal line; a
  reconnect asks the agent to resume there, so a dropped link never
  recomputes or re-ships finished runs.  Torn partial lines live only in
  the merger's tail buffer, never in the campaign journal.  The agent's
  ``stream`` token guards against splicing bytes from two different job
  incarnations — a token mismatch restarts the merge from offset 0
  (completions already merged are skipped by index, as ever).
* **Heartbeats**: agents report journal size with every heartbeat; the
  backend only bumps the supervisor's liveness clock when the size grew,
  so slow links do not false-trip ``run_timeout`` watchdogs while a
  genuinely hung remote worker still does.

Hosts are declared as ``HOST:PORT`` entries with an optional per-host
job cap (``HOST:PORT*CAP``), inline or in a hosts file (one entry per
line, ``#`` comments); see :func:`parse_hosts`.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.campaign.records import RunRecord
from repro.campaign.spec import Sweep
from repro.service.backends import DispatchBackend
from repro.service.journal import CheckpointJournal, JournalError, verify_completion
from repro.service.manifest import affinity_order, shard_job_document, split_shards
from repro.service.wire import TRANSPORT_ERRORS, request, retry

__all__ = [
    "HostRegistry",
    "HostSpec",
    "RemoteBackend",
    "RemoteDispatchError",
    "ShardFailure",
    "StreamProtocolError",
    "parse_host_entry",
    "parse_hosts",
    "parse_hosts_file",
]

RecordCallback = Callable[[int, RunRecord], None]


class RemoteDispatchError(RuntimeError):
    """No healthy host remains to run a pending shard."""


class ShardFailure(RuntimeError):
    """A shard worker exited non-zero; carries its stderr tail."""

    def __init__(self, message: str, stderr_tail: str = "") -> None:
        super().__init__(message)
        self.stderr_tail = stderr_tail


class StreamProtocolError(ConnectionError):
    """The agent's byte stream violated the protocol (treated as a
    transport failure: retried, then charged to the host)."""


# -------------------------------------------------------------------- hosts


@dataclass(frozen=True)
class HostSpec:
    """One agent endpoint with a concurrent-shard cap."""

    host: str
    port: int
    cap: int = 1

    @property
    def key(self) -> str:
        return f"{self.host}:{self.port}"


def parse_host_entry(text: str, where: str = "") -> HostSpec:
    """Parse one ``HOST:PORT`` / ``HOST:PORT*CAP`` entry."""
    prefix = f"{where}: " if where else ""
    entry = text.strip()
    cap = 1
    if "*" in entry:
        entry, _, cap_text = entry.rpartition("*")
        try:
            cap = int(cap_text)
        except ValueError:
            raise ValueError(f"{prefix}invalid job cap {cap_text!r} in {text!r}")
        if cap < 1:
            raise ValueError(f"{prefix}job cap must be positive in {text!r}")
    host, sep, port_text = entry.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"{prefix}host entry {text!r} is not HOST:PORT or HOST:PORT*CAP"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"{prefix}invalid port {port_text!r} in {text!r}")
    if not 0 < port < 65536:
        raise ValueError(f"{prefix}port out of range in {text!r}")
    return HostSpec(host=host, port=port, cap=cap)


def parse_hosts_file(path: str) -> List[HostSpec]:
    """Parse a hosts file: one entry per line, blanks and ``#`` comments."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read hosts file {path}: {exc}")
    specs: List[HostSpec] = []
    for lineno, line in enumerate(lines, start=1):
        entry = line.split("#", 1)[0].strip()
        if not entry:
            continue
        specs.append(parse_host_entry(entry, where=f"hosts file {path} line {lineno}"))
    return specs


def parse_hosts(items: Any, source: str = "--hosts") -> List[HostSpec]:
    """Resolve a hosts declaration into validated :class:`HostSpec` s.

    ``items`` is a string or sequence of strings; each item is either an
    inline ``HOST:PORT[*CAP]`` entry, a ``@file`` reference, or (when it
    contains no ``:``) a hosts file path.  Duplicates and an empty result
    are errors — both are configuration mistakes worth failing fast on.
    """
    if isinstance(items, str):
        items = [items]
    specs: List[HostSpec] = []
    for item in items or ():
        item = str(item).strip()
        if not item:
            continue
        if item.startswith("@"):
            specs.extend(parse_hosts_file(item[1:]))
        elif ":" not in item:
            specs.extend(parse_hosts_file(item))
        else:
            specs.append(parse_host_entry(item, where=source))
    if not specs:
        raise ValueError(f"{source}: no hosts declared")
    seen: Dict[str, HostSpec] = {}
    for spec in specs:
        if spec.key in seen:
            raise ValueError(f"{source}: duplicate host {spec.key}")
        seen[spec.key] = spec
    return specs


# ------------------------------------------------------------ host registry


class _HostState:
    def __init__(self, spec: HostSpec) -> None:
        self.spec = spec
        self.consecutive_failures = 0
        self.quarantined_until: Optional[float] = None
        self.shards_completed = 0
        self.last_beat: Optional[float] = None
        self.active = 0
        self.events: Deque[Dict[str, Any]] = deque(maxlen=20)


class HostRegistry:
    """Thread-safe health ledger and scheduler over a set of agent hosts.

    ``failure`` counts *consecutive* transport failures; at
    ``max_failures`` the host enters quarantine for ``probation`` seconds
    (timed on the monotonic clock), after which :meth:`acquire` may hand
    it out again as a probe.  A finished shard (``shard_done``) clears the
    streak.
    """

    def __init__(
        self,
        specs: Sequence[HostSpec] = (),
        max_failures: int = 2,
        probation: float = 30.0,
    ) -> None:
        self.max_failures = max(1, int(max_failures))
        self.probation = float(probation)
        self._lock = threading.Lock()
        self._hosts: Dict[str, _HostState] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: HostSpec) -> None:
        with self._lock:
            if spec.key not in self._hosts:
                self._hosts[spec.key] = _HostState(spec)

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._hosts)

    def _available(self, state: _HostState, now: float) -> bool:
        if state.quarantined_until is not None and now < state.quarantined_until:
            return False
        return state.active < state.spec.cap

    def acquire(self) -> Optional[HostSpec]:
        """Lease the least-loaded available host (``release`` when done)."""
        now = time.monotonic()
        with self._lock:
            candidates = [
                state for state in self._hosts.values() if self._available(state, now)
            ]
            if not candidates:
                return None
            state = min(
                candidates, key=lambda s: (s.active, s.consecutive_failures, s.spec.key)
            )
            state.active += 1
            return state.spec

    def has_available(self) -> bool:
        """True when any host is out of quarantine (ignores job caps)."""
        now = time.monotonic()
        with self._lock:
            return any(
                state.quarantined_until is None or now >= state.quarantined_until
                for state in self._hosts.values()
            )

    def release(self, key: str) -> None:
        with self._lock:
            state = self._hosts.get(key)
            if state is not None and state.active > 0:
                state.active -= 1

    def beat(self, key: str) -> None:
        with self._lock:
            state = self._hosts.get(key)
            if state is not None:
                state.last_beat = time.time()

    def shard_done(self, key: str) -> None:
        with self._lock:
            state = self._hosts.get(key)
            if state is not None:
                state.shards_completed += 1
                state.consecutive_failures = 0
                state.quarantined_until = None

    def failure(self, key: str, reason: str) -> bool:
        """Charge a transport failure; returns True if it quarantined."""
        with self._lock:
            state = self._hosts.get(key)
            if state is None:
                return False
            state.consecutive_failures += 1
            state.events.append(
                {"time": time.time(), "kind": "failure", "detail": str(reason)[:200]}
            )
            if state.consecutive_failures >= self.max_failures:
                state.quarantined_until = time.monotonic() + self.probation
                state.events.append(
                    {
                        "time": time.time(),
                        "kind": "quarantine",
                        "detail": f"{state.consecutive_failures} consecutive "
                        f"failures; probation {self.probation:g}s",
                    }
                )
                return True
            return False

    def snapshot(self) -> List[Dict[str, Any]]:
        """Status rows for ``qma-repro hosts`` / the ``/hosts`` endpoint."""
        now_mono = time.monotonic()
        now_wall = time.time()
        rows: List[Dict[str, Any]] = []
        with self._lock:
            for key in sorted(self._hosts):
                state = self._hosts[key]
                if state.quarantined_until is None:
                    status = "healthy"
                elif now_mono < state.quarantined_until:
                    status = "quarantined"
                else:
                    status = "probation"
                rows.append(
                    {
                        "host": state.spec.host,
                        "port": state.spec.port,
                        "cap": state.spec.cap,
                        "key": key,
                        "state": status,
                        "failures": state.consecutive_failures,
                        "shards": state.shards_completed,
                        "active": state.active,
                        "last_beat_age": (
                            None
                            if state.last_beat is None
                            else max(0.0, now_wall - state.last_beat)
                        ),
                        "events": list(state.events),
                    }
                )
        return rows


# ----------------------------------------------------------- stream merging


class JournalStreamMerger:
    """Incremental merge of one shard's journal byte stream.

    Feeds arrive as (offset, bytes) chunks; only *complete* lines are
    processed — a torn partial line waits in the tail buffer for the next
    chunk (or is discarded by a reconnect-from-``complete``, which is the
    network-stream analogue of the journal's truncate-before-append
    hardening).  ``complete`` is the resume offset: every byte before it
    has been parsed, digest-verified and merged (or skipped as a
    duplicate) into the campaign journal.
    """

    def __init__(
        self,
        journal: CheckpointJournal,
        lock: threading.Lock,
        on_record: Optional[RecordCallback] = None,
    ) -> None:
        self.journal = journal
        self.lock = lock
        self.on_record = on_record
        self.complete = 0
        self.lines = 0
        self.merged = 0
        self.stream: Optional[str] = None
        self.remote_size_seen = -1
        self._tail = b""
        self._header_done = False

    def reset(self, offset: int) -> None:
        """Re-anchor after a reconnect hello.

        Offset 0 restarts the whole stream (new job incarnation); the
        current ``complete`` offset resumes it, discarding any torn tail
        bytes from the broken connection.  Anything else means the agent
        and merger disagree about history — a protocol error.
        """
        if offset == 0:
            self.complete = 0
            self.lines = 0
            self._tail = b""
            self._header_done = False
        elif offset == self.complete:
            self._tail = b""
        else:
            raise StreamProtocolError(
                f"agent offered resume offset {offset}, merger is at {self.complete}"
            )

    def feed(self, offset: int, data: bytes) -> None:
        if offset != self.complete + len(self._tail):
            raise StreamProtocolError(
                f"chunk at offset {offset}, expected {self.complete + len(self._tail)}"
            )
        buffer = self._tail + data
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            line = buffer[: newline + 1]
            buffer = buffer[newline + 1 :]
            self._line(line)
            self.complete += len(line)
            self.lines += 1
        self._tail = buffer

    def _line(self, raw: bytes) -> None:
        text = raw.decode("utf-8").strip()
        if not text:
            return
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            raise JournalError(
                f"corrupt journal line in remote stream at byte {self.complete}"
            )
        if not self._header_done:
            self._header_done = True
            digest = (data.get("checkpoint") or {}).get("spec_digest")
            if digest != self.journal.spec_digest:
                raise JournalError(
                    f"remote shard journal spec digest {str(digest)[:12]} does "
                    f"not match campaign {self.journal.spec_digest[:12]}"
                )
            return
        if "event" in data:
            return
        index, record = verify_completion(data, path="<remote stream>")
        with self.lock:
            if index in self.journal:
                return  # duplicate from a re-run slice or an offset-0 restart
            self.journal.append(index, record)
            self.merged += 1
        if self.on_record is not None:
            self.on_record(index, record)


# ----------------------------------------------------------- remote backend


class RemoteBackend(DispatchBackend):
    """Dispatch affinity-ordered shard slices to remote campaign agents.

    The slice schedule is work-stealing over host slots: slices queue up,
    worker threads lease the least-loaded healthy host, stream the shard
    and merge it; a host that fails its transport retry budget is charged
    (and eventually quarantined) and the slice goes back on the queue for
    any other host.  When every host is quarantined and nothing is in
    flight, :class:`RemoteDispatchError` aborts the attempt — the
    supervision ladder then degrades to the local pool.  Cancel and
    abort both ask the agent to stop the in-flight shard workers.
    """

    name = "remote"

    def __init__(
        self,
        hosts: Any,
        jobs: int = 1,
        chunksize: Any = "auto",
        build_cache: bool = True,
        batch_seeds: int = 1,
        connect_timeout: float = 5.0,
        io_timeout: float = 15.0,
        transport_attempts: int = 3,
        host_failures: int = 2,
        probation: float = 30.0,
        registry: Optional[HostRegistry] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        super().__init__()
        specs = (
            list(hosts)
            if isinstance(hosts, (list, tuple))
            and all(isinstance(host, HostSpec) for host in hosts)
            else parse_hosts(hosts)
        )
        # Runner options of every shard worker; the supervision ladder
        # builds its pool rung from them.
        self.options = {
            "jobs": int(jobs),
            "chunksize": chunksize,
            "build_cache": bool(build_cache),
            "batch_seeds": int(batch_seeds),
        }
        self.connect_timeout = float(connect_timeout)
        self.io_timeout = float(io_timeout)
        self.transport_attempts = max(1, int(transport_attempts))
        self.registry = registry or HostRegistry(
            max_failures=host_failures, probation=probation
        )
        for spec in specs:
            self.registry.register(spec)
        self.specs = specs
        self.fault_plan = fault_plan

    @property
    def slots(self) -> int:
        """Total concurrent shard capacity across declared hosts."""
        return sum(spec.cap for spec in self.specs)

    # ------------------------------------------------------------- dispatch
    def run(
        self,
        sweep: Sweep,
        indices: Sequence[int],
        journal: CheckpointJournal,
        on_record: Optional[RecordCallback] = None,
    ) -> None:
        indices = list(indices)
        if not indices:
            return
        self.touch()
        plan = self.fault_plan
        if plan is not None and getattr(plan, "scratch", None) is None:
            bind = getattr(plan, "bind", None)
            if bind is not None:
                bind(journal.path + ".faults")
        chunks = [
            sorted(chunk)
            for chunk in split_shards(
                affinity_order(sweep, indices), max(1, self.slots)
            )
        ]
        sweep_data = sweep.to_dict()
        tasks: Deque[Tuple[int, List[int]]] = deque(enumerate(chunks))
        cond = threading.Condition()
        state: Dict[str, Any] = {"error": None, "in_flight": 0}
        journal_lock = threading.Lock()
        workers = [
            threading.Thread(
                target=self._worker,
                args=(
                    sweep_data,
                    len(chunks),
                    journal,
                    journal_lock,
                    on_record,
                    tasks,
                    cond,
                    state,
                ),
                name=f"remote-dispatch-{i}",
                daemon=True,
            )
            for i in range(min(max(1, self.slots), len(chunks)))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        error = state["error"]
        if error is not None and not (self.cancelled or self.aborted):
            raise error

    def _worker(
        self,
        sweep_data: Dict[str, Any],
        total_shards: int,
        journal: CheckpointJournal,
        journal_lock: threading.Lock,
        on_record: Optional[RecordCallback],
        tasks: Deque[Tuple[int, List[int]]],
        cond: threading.Condition,
        state: Dict[str, Any],
    ) -> None:
        while True:
            with cond:
                while True:
                    if (
                        state["error"] is not None
                        or self._stop.is_set()
                        or self._cancel.is_set()
                    ):
                        return
                    if not tasks:
                        if state["in_flight"] == 0:
                            return
                        cond.wait(0.2)
                        continue
                    host = self.registry.acquire()
                    if host is None:
                        if not self.registry.has_available() and state["in_flight"] == 0:
                            state["error"] = RemoteDispatchError(
                                "all remote hosts are quarantined "
                                f"({', '.join(self.registry.keys())})"
                            )
                            cond.notify_all()
                            return
                        cond.wait(0.2)
                        continue
                    task = tasks.popleft()
                    state["in_flight"] += 1
                    break
            requeue = False
            try:
                requeue = self._run_task(
                    task,
                    host,
                    sweep_data,
                    total_shards,
                    journal,
                    journal_lock,
                    on_record,
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded to run()
                with cond:
                    if state["error"] is None:
                        state["error"] = exc
            finally:
                self.registry.release(host.key)
                with cond:
                    state["in_flight"] -= 1
                    if requeue and state["error"] is None:
                        tasks.append(task)
                    cond.notify_all()

    def _run_task(
        self,
        task: Tuple[int, List[int]],
        host: HostSpec,
        sweep_data: Dict[str, Any],
        total_shards: int,
        journal: CheckpointJournal,
        journal_lock: threading.Lock,
        on_record: Optional[RecordCallback],
    ) -> bool:
        """Stream one shard slice from ``host``; True = requeue the slice."""
        shard_index, chunk = task
        with journal_lock:
            todo = [index for index in chunk if index not in journal]
        if not todo:
            return False
        job_doc = shard_job_document(
            sweep_data,
            todo,
            "",  # the agent substitutes its own journal path
            shard_index,
            total_shards,
            self.options,
            faults=self.fault_plan,
        )
        slice_tag = hashlib.sha256(repr(todo).encode("utf-8")).hexdigest()[:8]
        job_id = f"{journal.spec_digest[:12]}-s{shard_index:03d}-{slice_tag}"
        merger = JournalStreamMerger(journal, journal_lock, on_record)

        def attempt() -> bool:
            if self._stop.is_set() or self._cancel.is_set():
                return False
            return self._stream_job(host, job_id, job_doc, merger)

        try:
            done = retry(attempt, self.transport_attempts, self._sleep, seed=shard_index)
        except TRANSPORT_ERRORS as exc:
            self.registry.failure(host.key, str(exc))
            return True
        if done:
            self.registry.shard_done(host.key)
        return False  # done, or stopped by cancel/abort

    # ------------------------------------------------------------ transport
    def _stream_job(
        self,
        host: HostSpec,
        job_id: str,
        job_doc: Dict[str, Any],
        merger: JournalStreamMerger,
    ) -> bool:
        """One streaming connection; True = shard done, False = stopped."""
        plan = self.fault_plan
        if plan is not None and plan.take_partition(host.key):
            raise ConnectionError(
                f"injected network partition towards {host.key}"
            )
        run = {
            "id": job_id,
            "job": job_doc,
            "offset": merger.complete,
            "stream": merger.stream,
        }
        lines = request(
            host.host, host.port, "POST", "/run", run,
            timeout=self.io_timeout, connect_timeout=self.connect_timeout,
        )
        try:
            for line in lines:
                done = self._handle_message(host, line, merger)
                if done is not None:
                    return done
                # A live agent sends a line at least every heartbeat
                # interval (0.5 s), which bounds how late a stop is seen.
                if self._stop.is_set() or self._cancel.is_set():
                    # Best-effort stop of the remote worker (cancel or abort).
                    try:
                        list(request(
                            host.host, host.port, "POST", "/cancel", {"id": job_id},
                            timeout=self.connect_timeout,
                        ))
                    except TRANSPORT_ERRORS:
                        pass
                    return False
        finally:
            lines.close()
        raise ConnectionError(f"connection to {host.key} closed")

    def _handle_message(
        self, host: HostSpec, line: bytes, merger: JournalStreamMerger
    ) -> Optional[bool]:
        """Process one agent response line; non-None ends the stream."""
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            raise StreamProtocolError(f"non-JSON response line from {host.key}")
        if "hello" in message:
            hello = message["hello"]
            stream = hello.get("stream")
            offset = int(hello.get("offset", 0) or 0)
            if stream != merger.stream:
                # New job incarnation (agent restart / fresh job): the
                # byte history we hold does not apply.
                merger.reset(0)
                merger.stream = stream
            else:
                merger.reset(offset)
            self.touch()
            self.registry.beat(host.key)
            return None
        if "chunk" in message:
            chunk = message["chunk"]
            plan = self.fault_plan
            if plan is not None and plan.take_drop_stream(merger.lines):
                raise StreamProtocolError(
                    f"injected stream drop from {host.key} after "
                    f"{merger.lines} lines"
                )
            merger.feed(
                int(chunk.get("offset", -1)),
                str(chunk.get("data", "")).encode("latin-1"),
            )
            self.touch()
            self.registry.beat(host.key)
            return None
        if "heartbeat" in message:
            size = int(message["heartbeat"].get("size", -1))
            self.registry.beat(host.key)
            # Only *growth* counts as progress: a slow link with a live
            # worker keeps the watchdog fed, a hung worker does not.
            if size > merger.remote_size_seen:
                merger.remote_size_seen = size
                self.touch()
            return None
        if "done" in message:
            done = message["done"]
            exit_status = int(done.get("exit", -1))
            if exit_status != 0:
                tail = str(done.get("stderr", "") or "")
                raise ShardFailure(
                    f"remote shard on {host.key} exited with status {exit_status}"
                    + (f":\n{tail}" if tail else ""),
                    stderr_tail=tail,
                )
            return True
        if "error" in message:
            error = message["error"]
            raise StreamProtocolError(
                f"agent {host.key} refused job: "
                f"[{error.get('kind')}] {error.get('message')}"
            )
        raise StreamProtocolError(
            f"unrecognised response from {host.key}: {line[:120]!r}"
        )

    def _sleep(self, seconds: float) -> None:
        """Backoff sleep that still honours cancel/abort promptly."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if self._stop.is_set() or self._cancel.is_set():
                return
            time.sleep(min(0.05, max(0.0, deadline - time.monotonic())))
