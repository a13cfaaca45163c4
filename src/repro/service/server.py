"""Long-lived campaign service: asyncio HTTP front end over the backends.

Two layers, separable for testing:

* :class:`CampaignService` — the headless core.  Accepts sweep
  submissions from any thread, queues them onto a single dispatcher
  thread (campaigns execute one at a time — worker pools and the
  artifact-cache override are not safe to interleave in one process) and
  tracks per-job progress plus live per-metric
  :class:`~repro.analysis.stats.StreamingStats` built from records *as
  they finish*, so a million-run campaign reports running means and 95 %
  confidence intervals mid-flight in constant memory.  Every job is
  journalled under the service root, keyed by spec digest — submitting a
  sweep whose digest matches an earlier (even killed) campaign resumes it
  instead of recomputing.

* :class:`CampaignServer` — a stdlib-only asyncio HTTP server speaking
  line-delimited JSON.  One JSON object per response line; ``/status``
  streams one line per job.  The event loop never blocks on simulation
  work: handlers only touch the service's lock-guarded job table.

Endpoints::

    POST /submit   {"sweep": {...}, "options": {...}}  -> {"job": ...}
    GET  /status                                       -> ndjson, one job/line
    GET  /status?job=<id>                              -> single job object
    GET  /health                                       -> {"ok": true, ...}
    GET  /hosts                                        -> ndjson, one host/line
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import threading
import time
import traceback
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.analysis.stats import StreamingStats
from repro.campaign.records import RunRecord
from repro.campaign.spec import Sweep
from repro.service.checkpoint import run_checkpointed
from repro.service.manifest import sweep_digest
from repro.service.supervisor import make_supervised

__all__ = ["CampaignService", "CampaignServer"]

#: Job lifecycle states.  ``partial`` is terminal-but-incomplete (poison
#: runs quarantined by the supervisor); ``cancelled`` is a user stop.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
PARTIAL, CANCELLED = "partial", "cancelled"

#: States in which a job will never run again.
TERMINAL_STATES = (DONE, FAILED, PARTIAL, CANCELLED)

#: Supervision events kept per job for status output (bounded).
MAX_JOB_EVENTS = 50


class CampaignJob:
    """Mutable state of one submitted campaign (guarded by the service lock)."""

    def __init__(self, job_id: str, sweep: Sweep, options: Dict[str, Any], journal_path: str) -> None:
        self.job_id = job_id
        self.sweep = sweep
        self.options = options
        self.journal_path = journal_path
        self.spec_digest = sweep_digest(sweep)
        self.state = QUEUED
        self.total = sweep.size
        self.completed = 0
        self.resumed = 0
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self.stats: Dict[str, StreamingStats] = {}
        self.quarantined = 0
        self.events: List[Dict[str, Any]] = []

    def observe(self, record: RunRecord) -> None:
        self.completed += 1
        for name, value in record.metrics.items():
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = StreamingStats()
            stats.push(float(value))

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: identity, progress, live metric aggregates."""
        metrics = {}
        for name, stats in sorted(self.stats.items()):
            mean, ci95 = stats.ci95()
            metrics[name] = {"n": stats.n, "mean": mean, "ci95": ci95}
        return {
            "job": self.job_id,
            "state": self.state,
            "digest": self.spec_digest,
            "experiment": self.sweep.experiment,
            "total": self.total,
            "completed": self.completed,
            "resumed": self.resumed,
            "journal": self.journal_path,
            "error": self.error,
            "quarantined": self.quarantined,
            "events": list(self.events),
            "metrics": metrics,
        }


class CampaignService:
    """Thread-safe campaign queue + dispatcher; the server's headless core."""

    def __init__(self, root: str, backend_options: Optional[Mapping[str, Any]] = None) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.backend_options = dict(backend_options or {})
        #: Shared across every remote-dispatched job of this service, so
        #: host health (quarantine state, failure streaks, heartbeats)
        #: persists between campaigns and feeds ``/hosts``.
        self._host_registry: Optional[Any] = None
        if self.backend_options.get("backend") == "remote":
            from repro.service.remote import HostRegistry, parse_hosts

            specs = parse_hosts(
                self.backend_options.get("hosts") or (),
                source="service backend options",
            )
            self._host_registry = HostRegistry(specs)
        self._lock = threading.Lock()
        self._jobs: Dict[str, CampaignJob] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._counter = 0
        self._active: Optional[Tuple[str, Any]] = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="campaign-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------- submission
    def submit(self, sweep_data: Mapping[str, Any], options: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Validate and enqueue a sweep; returns the submit acknowledgement.

        Raises :class:`ValueError` on an invalid sweep spec or backend
        options — the server maps that to a 400 without enqueueing.
        """
        sweep = Sweep.from_dict(sweep_data)
        merged = dict(self.backend_options)
        merged.update(options or {})
        # Validate options before enqueueing (bad options -> 400, not a
        # failed job).  The throwaway backend shares the host registry so
        # validation does not reset host health.
        make_supervised(
            merged, host_registry=self._host_registry, source="submit options"
        ).close()
        digest = sweep_digest(sweep)
        journal_path = os.path.join(self.root, f"{digest[:12]}.journal.jsonl")
        with self._lock:
            self._counter += 1
            job = CampaignJob(f"job-{self._counter}", sweep, merged, journal_path)
            self._jobs[job.job_id] = job
        self._queue.put(job.job_id)
        return {
            "job": job.job_id,
            "digest": digest,
            "total": job.total,
            "journal": journal_path,
        }

    # ----------------------------------------------------------------- status
    def status(self, job_id: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            if job_id is not None:
                job = self._jobs.get(job_id)
                if job is None:
                    raise KeyError(job_id)
                return [job.snapshot()]
            return [job.snapshot() for _, job in sorted(self._jobs.items())]

    def hosts(self) -> List[Dict[str, Any]]:
        """Host health rows of the remote dispatch registry (may be empty)."""
        registry = self._host_registry
        return registry.snapshot() if registry is not None else []

    def health(self) -> Dict[str, Any]:
        with self._lock:
            states = [job.state for job in self._jobs.values()]
        return {
            "ok": True,
            "jobs": len(states),
            "running": states.count(RUNNING),
            "queued": states.count(QUEUED),
            "root": self.root,
        }

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (testing aid)."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._lock:
                if all(job.state in TERMINAL_STATES for job in self._jobs.values()):
                    return True
            time.sleep(0.02)
        return False

    # ----------------------------------------------------------- cancellation
    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job: dequeue it, or drain the running campaign.

        A queued job flips straight to ``cancelled``.  A running job's
        backend is asked to stop gracefully — in-flight runs drain into
        the journal, the dispatcher then marks the job ``cancelled`` (a
        resubmission of the same sweep resumes from the journal).  A
        terminal job is returned unchanged.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = time.time()
                return job.snapshot()
            if job.state in TERMINAL_STATES:
                return job.snapshot()
            active = self._active
            snapshot = job.snapshot()
        if active is not None and active[0] == job_id:
            active[1].cancel()
        snapshot["cancelling"] = True
        return snapshot

    # -------------------------------------------------------------- dispatch
    def _dispatch_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                if job.state != QUEUED:  # cancelled while waiting in line
                    continue
                job.state = RUNNING
            backend = None
            try:
                backend = make_supervised(
                    job.options,
                    on_event=lambda event, job=job: self._record_event(job, event),
                    host_registry=self._host_registry,
                )
                inner = getattr(backend, "inner", backend)
                if self._host_registry is None and inner.name == "remote":
                    # Per-job --hosts on a local-default service: adopt
                    # the first remote backend's registry for /hosts.
                    self._host_registry = inner.registry
                with self._lock:
                    self._active = (job_id, backend)
                outcome = run_checkpointed(
                    job.sweep,
                    job.journal_path,
                    backend=backend,
                    meta={"service": {"job": job.job_id}},
                    on_record=lambda index, record, job=job: self._observe(job, record),
                )
                # Records resumed from the journal never passed through
                # observe(); rebuild the aggregates from the journal before
                # the terminal state is published, so no poller can see a
                # finished job whose stats miss the resumed runs.
                stats = self._backfill(job) if outcome.resumed else None
                with self._lock:
                    if stats is not None:
                        job.stats = stats
                    job.resumed = outcome.resumed
                    job.completed = outcome.resumed + outcome.executed
                    job.quarantined = len(outcome.quarantined)
                    job.state = {
                        "complete": DONE,
                        "partial": PARTIAL,
                        "cancelled": CANCELLED,
                    }[outcome.status]
                    job.finished_at = time.time()
            except BaseException as exc:  # noqa: BLE001 - job isolation
                with self._lock:
                    job.state = FAILED
                    job.error = "".join(
                        traceback.format_exception_only(type(exc), exc)
                    ).strip()
                    tail = getattr(exc, "stderr_tail", "")
                    if tail:
                        job.error += "\n" + tail
                    job.finished_at = time.time()
            finally:
                with self._lock:
                    self._active = None
                if backend is not None:
                    backend.close()

    def _record_event(self, job: CampaignJob, event: Dict[str, Any]) -> None:
        with self._lock:
            job.events.append(event)
            if event.get("kind") == "quarantine":
                job.quarantined += 1
            del job.events[:-MAX_JOB_EVENTS]

    def _observe(self, job: CampaignJob, record: RunRecord) -> None:
        with self._lock:
            job.observe(record)

    def _backfill(self, job: CampaignJob) -> Dict[str, StreamingStats]:
        """Final stats rebuilt from the journal when runs were resumed.

        Live stats only saw newly executed records; replaying the full
        journal in expansion order makes the end-state aggregates both
        complete and deterministic.
        """
        from repro.service.journal import CheckpointJournal

        journal = CheckpointJournal.open(job.journal_path)
        try:
            fresh: Dict[str, StreamingStats] = {}
            for _, record in journal.iter_completed():
                for name, value in record.metrics.items():
                    stats = fresh.get(name)
                    if stats is None:
                        stats = fresh[name] = StreamingStats()
                    stats.push(float(value))
            return fresh
        finally:
            journal.close()

    def close(self) -> None:
        """Stop the dispatcher after the current job (no new jobs start)."""
        self._queue.put(None)


class CampaignServer:
    """Asyncio HTTP front end over a :class:`CampaignService`.

    Stdlib-only: hand-parses the request head (method, target, headers,
    Content-Length body) and answers with line-delimited JSON,
    ``Connection: close``.  Start with :meth:`start` (binds and returns)
    or :meth:`serve_forever`.
    """

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: Chaos-harness hook: a fault plan whose ``drop-http`` faults make
        #: the server close a connection before answering (clients must
        #: survive and retry/resubmit — resubmission is a resume).
        self.fault_plan = fault_plan
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- plumbing
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10.0)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, asyncio.LimitOverrunError):
                return
            method, target, headers = _parse_head(head)
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length:
                body = await reader.readexactly(length)
            status, payload = self._route(method, target, body)
            if self.fault_plan is not None and self.fault_plan.take_drop_http():
                return  # injected fault: drop the connection unanswered
            writer.write(_response(status, payload))
            await writer.drain()
        except (ConnectionError, json.JSONDecodeError, ValueError) as exc:
            try:
                writer.write(_response(400, [{"error": str(exc)}]))
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _route(self, method: str, target: str, body: bytes) -> Tuple[int, List[Dict[str, Any]]]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {key: values[-1] for key, values in parse_qs(parts.query).items()}
        if method == "POST" and path == "/submit":
            try:
                request = json.loads(body or b"{}")
                ack = self.service.submit(
                    request.get("sweep", {}), request.get("options")
                )
            except (ValueError, TypeError, KeyError) as exc:
                return 400, [{"error": str(exc)}]
            return 200, [ack]
        if method == "GET" and path == "/status":
            try:
                return 200, self.service.status(query.get("job"))
            except KeyError:
                return 404, [{"error": f"unknown job {query.get('job')!r}"}]
        if method == "GET" and path == "/health":
            return 200, [self.service.health()]
        if method == "GET" and path == "/hosts":
            return 200, self.service.hosts()
        if method == "DELETE" and path.startswith("/job/"):
            job_id = path[len("/job/"):]
            try:
                return 200, [self.service.cancel(job_id)]
            except KeyError:
                return 404, [{"error": f"unknown job {job_id!r}"}]
        return 404, [{"error": f"no route for {method} {path}"}]


def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ValueError(f"malformed request line {lines[0]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found"}


def _response(status: int, objects: List[Dict[str, Any]]) -> bytes:
    body = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objects).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
        f"Content-Type: application/x-ndjson\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body
