"""Pluggable campaign dispatch: in-process pool, serial, and the factory.

A :class:`DispatchBackend` executes the pending runs of a sweep and
appends every finished record to the campaign's checkpoint journal.  The
contract is deliberately small — ``run(sweep, indices, journal,
on_record)`` — so execution substrates plug in without touching the
journal, the service front end or the CLI:

* :class:`PoolBackend` — the default: one warm
  :class:`~repro.campaign.runner.CampaignRunner` (persistent worker pool,
  build cache, seed batches) executing the pending set in expansion order.
* :class:`~repro.service.remote.RemoteBackend` — affinity-ordered shard
  slices shipped to campaign agents (``--hosts``), their journals
  streamed back and merged.  ``--shards N`` is the same path against one
  private local agent (:class:`~repro.service.remote.LoopbackBackend`).
  Both live in :mod:`repro.service.remote`, imported only when asked for.
* :class:`SerialBackend` — one run at a time, each in a disposable child
  process forked from the calling process, with an optional wall-clock
  timeout, so a poison scenario that segfaults or loops cannot take the
  caller down — this is the supervision layer's last-resort degradation
  tier and the substrate that attributes failures to *specific* runs for
  quarantine.

Every backend shares a small supervision surface: :meth:`~DispatchBackend.
touch` timestamps progress (``last_progress``) for heartbeat watchdogs,
:meth:`~DispatchBackend.cancel` requests a graceful stop (finish/drain
in-flight runs into the journal, then return), :meth:`~DispatchBackend.
abort` a forced one (return as soon as possible; in-flight work is
abandoned to the journal's atomicity), and :meth:`~DispatchBackend.reset`
re-arms an aborted backend for a retry attempt.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import traceback
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.records import RunRecord
from repro.campaign.runner import CampaignRunner, execute_scenario
from repro.campaign.spec import Scenario, Sweep
from repro.service.journal import CheckpointJournal

__all__ = [
    "DispatchBackend",
    "PoolBackend",
    "SerialBackend",
    "make_backend",
]

#: Callback invoked per finished record: ``on_record(index, record)``.
RecordCallback = Callable[[int, RunRecord], None]


class DispatchBackend:
    """Protocol of campaign execution substrates.

    ``run`` executes the given pending expansion indices of the sweep,
    appending each finished record to ``journal`` (atomically per record,
    so a crash loses at most in-flight work) and invoking ``on_record``
    live as results arrive.  Completion order is backend-defined; callers
    that need expansion order replay the journal afterwards.

    ``run`` returning with indices still pending is not an error at this
    layer: a cancelled or aborted backend stops early by design, and the
    supervision layer decides whether that means retry, degrade or
    quarantine.  Backends honour :meth:`cancel` / :meth:`abort` promptly
    (within a poll interval) and never block forever on a dead worker.
    """

    name = "abstract"

    #: True when ``run`` invokes ``on_record`` in expansion order of the
    #: given indices.  Lets :func:`~repro.service.checkpoint.run_checkpointed`
    #: stream records straight into sinks on a cold run instead of paying
    #: the journal replay pass.
    ordered = False

    def __init__(self) -> None:
        self.last_progress = time.monotonic()
        self._stop = threading.Event()
        self._cancel = threading.Event()

    # --------------------------------------------------------- supervision
    def touch(self) -> None:
        """Record liveness; heartbeat watchdogs compare ``last_progress``."""
        self.last_progress = time.monotonic()

    def cancel(self) -> None:
        """Request a graceful stop: drain in-flight runs, then return."""
        self._cancel.set()

    def abort(self) -> None:
        """Request a forced stop: return as soon as possible."""
        self._stop.set()

    def reset(self) -> None:
        """Re-arm an aborted backend for another attempt (keeps ``cancel``)."""
        self._stop.clear()
        self.touch()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    @property
    def aborted(self) -> bool:
        return self._stop.is_set()

    # ----------------------------------------------------------- execution
    def run(
        self,
        sweep: Sweep,
        indices: Sequence[int],
        journal: CheckpointJournal,
        on_record: Optional[RecordCallback] = None,
    ) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any persistent resources (worker pools, ...)."""


class PoolBackend(DispatchBackend):
    """Warm in-process worker-pool execution (the default backend).

    Wraps a persistent :class:`CampaignRunner`: the subset flows through
    the same template dispatch, affinity ordering and seed batching as a
    full sweep.  ``throttle`` sleeps after each record — a testing and
    demo aid that makes "mid-campaign" externally observable on sweeps
    that would otherwise finish in milliseconds.

    Results are consumed through a bounded queue fed by a daemon pump
    thread, so ``run`` itself never blocks on the pool: a dead or wedged
    worker shows up as a stalled ``last_progress`` (caught by the
    supervisor's watchdog) and :meth:`abort` returns promptly even while
    the pump is stuck mid-``imap`` — ``Pool.terminate`` cannot unblock a
    waiting ``IMapIterator``, so the pump is abandoned (daemon) rather
    than joined.
    """

    name = "pool"
    # iter_records re-emits in expansion order regardless of jobs/affinity
    # reordering/seed batching, so completions arrive index-sorted.
    ordered = True

    #: Queue poll period — the latency bound on cancel/abort.
    POLL_INTERVAL = 0.2

    def __init__(
        self,
        jobs: int = 1,
        chunksize: Any = "auto",
        build_cache: bool = True,
        cache_size: Optional[int] = None,
        batch_seeds: int = 1,
        throttle: float = 0.0,
        fault_plan: Optional[Any] = None,
    ) -> None:
        super().__init__()
        self.throttle = float(throttle)
        self._runner = CampaignRunner(
            jobs=jobs,
            chunksize=chunksize,
            build_cache=build_cache,
            cache_size=cache_size,
            batch_seeds=batch_seeds,
            fault_plan=fault_plan,
        )

    @property
    def runner(self) -> CampaignRunner:
        return self._runner

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
        results: "queue.Queue[Tuple[str, Any]]" = queue.Queue(maxsize=64)
        stop = self._stop

        def pump() -> None:
            try:
                for record in self._runner.iter_records(sweep, indices=indices):
                    while not stop.is_set():
                        try:
                            results.put(("rec", record), timeout=PoolBackend.POLL_INTERVAL)
                            break
                        except queue.Full:
                            continue
                    else:
                        return
                    # Throttling on the dispatch side keeps tiny campaigns
                    # genuinely mid-flight: a graceful cancel then finds
                    # uncomputed runs to skip rather than a full queue.
                    if self.throttle > 0 and not stop.is_set():
                        time.sleep(self.throttle)
            except BaseException as exc:  # surfaced in run()'s thread
                try:
                    results.put(("err", exc), timeout=1.0)
                except queue.Full:
                    pass
            else:
                try:
                    results.put(("done", None), timeout=1.0)
                except queue.Full:
                    pass

        thread = threading.Thread(target=pump, name="pool-backend-pump", daemon=True)
        thread.start()
        position = 0
        interrupted = True
        try:
            while not stop.is_set():
                if self._cancel.is_set():
                    # Graceful: journal everything that already finished,
                    # then stop dispatching.
                    while True:
                        try:
                            kind, payload = results.get_nowait()
                        except queue.Empty:
                            break
                        if kind == "rec":
                            position = self._deliver(
                                payload, indices, position, journal, on_record
                            )
                    return
                try:
                    kind, payload = results.get(timeout=PoolBackend.POLL_INTERVAL)
                except queue.Empty:
                    continue
                if kind == "rec":
                    position = self._deliver(
                        payload, indices, position, journal, on_record
                    )
                    self.touch()
                elif kind == "err":
                    raise payload
                else:  # done
                    interrupted = False
                    return
        finally:
            if interrupted:
                # Cancelled, aborted, or an error: drop the pool so
                # outstanding tasks die with it (the abandoned pump thread
                # then unblocks or exits with the pool's pipes).
                self._runner.close()

    @staticmethod
    def _deliver(
        record: RunRecord,
        indices: List[int],
        position: int,
        journal: CheckpointJournal,
        on_record: Optional[RecordCallback],
    ) -> int:
        index = indices[position]
        journal.append(index, record)
        if on_record is not None:
            on_record(index, record)
        return position + 1

    def close(self) -> None:
        self._runner.close()


def _probe_run(conn: Any, scenario: Scenario, fault_plan: Optional[Any]) -> None:
    """Disposable-child entry point for :class:`SerialBackend` isolation."""
    try:
        from repro.service import faults

        if fault_plan is not None:
            faults.mark_worker_process()
        # Unconditional: installing None clears any plan this forked child
        # inherited from a previous chaos campaign in the parent.
        faults.install(fault_plan)
        record = execute_scenario(scenario)
        conn.send(("ok", record))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # parent gave up on us
            pass
    finally:
        conn.close()


class SerialBackend(DispatchBackend):
    """One run at a time, each in a disposable child process.

    Each run happens in a forked child connected by a pipe, with an
    optional per-run wall-clock ``timeout``: a run that crashes the
    interpreter, loops forever, or raises is recorded in :attr:`failures` as
    ``(index, kind, detail)`` (kind ``error`` | ``crash`` | ``timeout``)
    and execution continues with the next index.  This precise
    per-run failure attribution is what the supervision layer's
    quarantine decisions are built on — parallel backends can only say
    *an attempt* failed, the serial tier can say *which run* did.
    """

    name = "serial"
    ordered = True

    #: Child-pipe poll period.
    POLL_INTERVAL = 0.1

    #: Seconds a terminated probe child gets to die before SIGKILL.
    TERM_GRACE = 5.0

    def __init__(
        self,
        timeout: Optional[float] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        super().__init__()
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self.fault_plan = fault_plan
        #: Per-run failures of the most recent ``run`` call.
        self.failures: List[Tuple[int, str, str]] = []

    def run(
        self,
        sweep: Sweep,
        indices: Sequence[int],
        journal: CheckpointJournal,
        on_record: Optional[RecordCallback] = None,
    ) -> None:
        self.failures = []
        indices = list(indices)
        if not indices:
            return
        self.touch()
        index_set = frozenset(indices)
        last = max(indices)
        for position, scenario in enumerate(sweep):
            if position > last:
                return
            if position not in index_set:
                continue
            if self._stop.is_set() or self._cancel.is_set():
                return
            outcome, payload = self._execute(scenario)
            self.touch()
            if outcome != "ok":
                self.failures.append((position, outcome, payload))
                continue
            journal.append(position, payload)
            if on_record is not None:
                on_record(position, payload)

    def _execute(self, scenario: Scenario) -> Tuple[str, Any]:
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_probe_run,
            args=(child_conn, scenario, self.fault_plan),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        try:
            while True:
                if parent_conn.poll(self.POLL_INTERVAL):
                    try:
                        kind, payload = parent_conn.recv()
                    except (EOFError, OSError):
                        kind = None
                    if kind == "ok":
                        return "ok", payload
                    if kind == "error":
                        return "error", payload
                    # Pipe closed without a message: fall through to the
                    # liveness check below (the child crashed mid-send).
                if not proc.is_alive():
                    # One last poll closes the race between a sent message
                    # and the child's exit.
                    if parent_conn.poll(0):
                        continue
                    return "crash", f"run worker exited with code {proc.exitcode}"
                if deadline is not None and time.monotonic() > deadline:
                    proc.terminate()
                    proc.join(self.TERM_GRACE)
                    if proc.is_alive():  # pragma: no cover - SIGTERM blocked
                        proc.kill()
                        proc.join()
                    return "timeout", (
                        f"run exceeded the {self.timeout:g}s wall-clock timeout"
                    )
                if self._stop.is_set() or self._cancel.is_set():
                    proc.terminate()
                    proc.join(self.TERM_GRACE)
                    return "error", "stopped before completion"
        finally:
            parent_conn.close()
            if not proc.is_alive():
                proc.join()


#: Option keys understood by each backend kind (validated by make_backend).
_BACKEND_OPTIONS = {
    "pool": ("jobs", "chunksize", "build_cache", "cache_size", "batch_seeds", "throttle"),
    "shard": ("shards", "jobs", "chunksize", "build_cache", "batch_seeds"),
    "serial": ("timeout",),
    "remote": (
        "hosts",
        "jobs",
        "chunksize",
        "build_cache",
        "batch_seeds",
        "connect_timeout",
        "io_timeout",
        "transport_attempts",
        "host_failures",
        "probation",
    ),
}


def make_backend(
    options: Optional[Mapping[str, Any]] = None,
    fault_plan: Optional[Any] = None,
    host_registry: Optional[Any] = None,
    source: Optional[str] = None,
) -> DispatchBackend:
    """Build a dispatch backend from a plain options mapping.

    ``{"backend": "pool"|"shard"|"serial"|"remote", ...}`` — remaining
    keys are forwarded to the backend constructor; unknown keys raise
    :class:`ValueError` (the service front end surfaces this as a 400
    instead of running a sweep under silently-dropped options), with
    ``source`` naming where the bad option came from (a CLI flag, submit
    options, ...).  ``fault_plan`` is the chaos harness's injection plan
    and ``host_registry`` a shared :class:`~repro.service.remote.HostRegistry`
    for the remote backend — internal parameters threaded by the
    supervisor/service, not option keys.
    """
    options = dict(options or {})
    kind = options.pop("backend", "pool")
    origin = f" (from {source})" if source else ""
    allowed = _BACKEND_OPTIONS.get(kind)
    if allowed is None:
        raise ValueError(
            f"unknown dispatch backend {kind!r}{origin}; expected one of "
            f"{sorted(_BACKEND_OPTIONS)}"
        )
    unknown = sorted(set(options) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown option(s) {unknown} for backend {kind!r}{origin}; "
            f"allowed: {sorted(allowed)}"
        )
    if kind == "serial":
        return SerialBackend(fault_plan=fault_plan, **options)
    if kind == "shard":
        from repro.service.remote import LoopbackBackend

        return LoopbackBackend(fault_plan=fault_plan, **options)
    if kind == "remote":
        from repro.service.remote import RemoteBackend, parse_hosts

        hosts = parse_hosts(
            options.pop("hosts", None) or (), source=source or "--hosts"
        )
        return RemoteBackend(
            hosts, registry=host_registry, fault_plan=fault_plan, **options
        )
    return PoolBackend(fault_plan=fault_plan, **options)
