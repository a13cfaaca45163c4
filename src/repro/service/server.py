"""Long-lived campaign service: threaded HTTP front end over the backends.

Two layers, separable for testing:

* :class:`CampaignService` — the headless core.  Accepts sweep
  submissions from any thread, queues them onto a single dispatcher
  thread (campaigns execute one at a time — worker pools and the
  artifact-cache override are not safe to interleave in one process) and
  tracks per-job progress plus a live
  :class:`~repro.campaign.frame.TableAggregator` fed with records *as
  they finish*, so a million-run campaign reports running means and 95 %
  confidence intervals mid-flight in constant memory.  A finished job
  publishes the table of every record in expansion order.  Every job is
  journalled under the service root, keyed by spec digest — submitting a
  sweep whose digest matches an earlier (even killed) campaign resumes it
  instead of recomputing.

* :class:`CampaignServer` — the service's routes on the one wire stack,
  :class:`repro.service.wire.NdjsonServer`.  One JSON object per
  response line; ``/status`` streams one line per job.  Handlers never
  run simulation work: they only touch the service's lock-guarded job
  table.

Endpoints::

    POST /submit   {"sweep": {...}, "options": {...}}  -> {"job": ...}
    GET  /status                                       -> ndjson, one job/line
    GET  /status?job=<id>                              -> single job object
    GET  /health                                       -> {"ok": true, ...}
    GET  /hosts                                        -> ndjson, one host/line
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import traceback
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign.frame import TableAggregator
from repro.campaign.records import RunRecord
from repro.campaign.spec import Sweep
from repro.service.checkpoint import run_checkpointed
from repro.service.manifest import sweep_digest
from repro.service.supervisor import make_supervised
from repro.service.wire import Answer, NdjsonServer

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
        self.table = TableAggregator(by=())
        self.quarantined = 0
        self.events: List[Dict[str, Any]] = []

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: identity, progress, live metric aggregates."""
        metrics = {}
        for name in self.table.metric_names():
            stats = self.table.groups(name)[()]
            metrics[name] = {"n": stats["n"], "mean": stats["mean"], "ci95": stats["ci95"]}
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
                # The live table follows completions as they happen; the
                # final one sees every record in expansion order, resumed
                # ones included, so a job's end-state aggregates do not
                # depend on shard timing.
                table = TableAggregator(by=())
                outcome = run_checkpointed(
                    job.sweep,
                    job.journal_path,
                    backend=backend,
                    sinks=[table],
                    meta={"service": {"job": job.job_id}},
                    on_record=lambda index, record, job=job: self._observe(job, record),
                )
                with self._lock:
                    job.table = table
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
            job.completed += 1
            job.table.write(record)

    def close(self) -> None:
        """Stop the dispatcher after the current job (no new jobs start)."""
        self._queue.put(None)


class CampaignServer(NdjsonServer):
    """HTTP front end over a :class:`CampaignService`."""

    def __init__(
        self,
        service: CampaignService,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan: Optional[Any] = None,
    ) -> None:
        super().__init__(host, port)
        self.service = service
        #: Chaos-harness hook: a fault plan whose ``drop-http`` faults make
        #: the server close a connection before answering (clients must
        #: survive and retry/resubmit — resubmission is a resume).
        self.fault_plan = fault_plan

    def route(self, method: str, path: str, query: Dict[str, str], body: bytes) -> Answer:
        answer = self._answer(method, path, query, body)
        if self.fault_plan is not None and self.fault_plan.take_drop_http():
            return None  # injected fault: drop the connection unanswered
        return answer

    def _answer(self, method: str, path: str, query: Dict[str, str], body: bytes) -> Tuple[int, List[Dict[str, Any]]]:
        if method == "POST" and path == "/submit":
            try:
                request = json.loads(body or b"{}")
                ack = self.service.submit(
                    request.get("sweep", {}), request.get("options")
                )
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
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
