"""Campaign supervision: retries, heartbeats, quarantine, degradation.

:class:`SupervisedBackend` wraps any :class:`~repro.service.backends.
DispatchBackend` and turns worker/shard failures from campaign-fatal
exceptions into recorded, retried, or quarantined events:

* **Bounded retry with backoff.**  A failed attempt (backend exception,
  watchdog timeout, or an attempt that returned with runs still pending)
  is retried after an exponential backoff with deterministic seeded
  jitter.  Retried runs are re-dispatched *by expansion index* and remain
  bit-identical, because a run's result is a pure function of
  ``(spec digest, index, seed)`` — the journal's digest-verified append
  path rejects nothing twice and loses nothing once committed.
* **Heartbeat watchdog.**  With :attr:`RetryPolicy.run_timeout` set, an
  attempt whose backend reports no progress (``last_progress``) for the
  timeout plus a grace period is aborted — a hung run or a dead pool
  worker stalls one attempt, not the campaign.
* **Graceful degradation.**  After :attr:`RetryPolicy.backend_attempts`
  consecutive failures on one execution tier the supervisor falls back:
  remote (``--hosts``) or shard (``--shards``) → pool → isolated serial.
  Every fallback is a structured ``degrade`` event in the journal.
* **Poison-run quarantine.**  The terminal serial tier executes each run
  in a disposable child process, so it can attribute crashes, hangs and
  exceptions to *specific* runs.  A run that fails
  :attr:`RetryPolicy.max_attempts` times is appended — spec, seed,
  attempt history, traceback — to ``<journal>.quarantine.jsonl`` and the
  campaign completes with status ``partial`` instead of dying;
  :func:`retry_quarantined` re-dispatches quarantined runs later with a
  fresh attempt budget.

The wrapper preserves the inner backend's ordering contract: when the
inner backend emits records in expansion order, so does the supervised
one — records that arrive out of order after a retry are buffered (or
replayed from the journal) until the prefix catches up, which keeps the
cold-run direct-streaming fast path (the ≤5 % checkpoint-overhead
budget) intact.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.campaign.records import RunRecord
from repro.campaign.spec import Scenario, Sweep
from repro.service.backends import (
    DispatchBackend,
    PoolBackend,
    RecordCallback,
    SerialBackend,
    make_backend,
)
from repro.service.faults import FaultPlan, InjectedFault
from repro.service.journal import CheckpointJournal

__all__ = [
    "RetryPolicy",
    "SupervisedBackend",
    "load_quarantine",
    "make_supervised",
    "quarantine_path",
    "retry_quarantined",
]

#: Extra no-progress seconds beyond ``run_timeout`` before the watchdog
#: declares an attempt hung (absorbs poll intervals and probe teardown).
WATCHDOG_GRACE = 2.0

#: Seconds an aborted attempt thread gets to unwind before the supervisor
#: declares the process wedged (a bug, not a workload failure).
ABORT_JOIN = 30.0

#: Option keys :func:`make_supervised` consumes before building the inner
#: backend (everything else is a backend option).
SUPERVISION_OPTIONS = (
    "supervise",
    "max_attempts",
    "backend_attempts",
    "run_timeout",
    "backoff_base",
    "backoff_max",
    "faults",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the supervisor's persistence.

    ``max_attempts`` is the per-run failure budget before quarantine
    (counted from *precisely attributed* failures — the serial tier's);
    ``backend_attempts`` the consecutive attempt failures one execution
    tier gets before degradation; ``run_timeout`` the per-run wall-clock
    bound (None disables the watchdog and probe timeouts).  Backoff
    between attempts is ``backoff_base * 2**(attempt-1)`` capped at
    ``backoff_max``, stretched by up to ``jitter`` (fractional, from a
    ``seed``-ed RNG, so a retry schedule is reproducible).
    """

    max_attempts: int = 3
    backend_attempts: int = 2
    run_timeout: Optional[float] = None
    backoff_base: float = 0.5
    backoff_max: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")
        if self.backend_attempts < 1:
            raise ValueError(
                f"backend_attempts must be positive, got {self.backend_attempts}"
            )
        if self.run_timeout is not None and self.run_timeout <= 0:
            raise ValueError(f"run_timeout must be positive, got {self.run_timeout}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (1-based over failed attempts)."""
        delay = min(self.backoff_max, self.backoff_base * (2 ** max(0, attempt - 1)))
        return delay * (1.0 + self.jitter * rng.random())


# ---------------------------------------------------------------- quarantine
def quarantine_path(journal_path: str) -> str:
    """The quarantine file that belongs to a campaign journal."""
    return str(journal_path) + ".quarantine.jsonl"


def load_quarantine(path: str) -> List[Dict[str, Any]]:
    """All quarantine entries (empty when the file does not exist)."""
    entries: List[Dict[str, Any]] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return entries
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail: the entry's run simply stays pending
    return entries


def write_quarantine(path: str, entries: Sequence[Mapping[str, Any]]) -> None:
    """Atomically replace the quarantine file (empty list removes it)."""
    if not entries:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def append_quarantine(path: str, entry: Mapping[str, Any]) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def _scenario_at(sweep: Sweep, index: int) -> Scenario:
    scenario = next(islice(iter(sweep), index, index + 1), None)
    if scenario is None:  # pragma: no cover - index validated upstream
        raise IndexError(f"sweep has no expansion index {index}")
    return scenario


class _Emitter:
    """Record emission that honours the inner backend's ordering contract.

    For an ordered inner backend, records are released to ``on_record``
    strictly in target-index order: out-of-order arrivals (retried runs,
    streamed merges) are buffered, and gaps already committed to the
    journal are replayed on :meth:`drain`.  Quarantined indices are
    skipped so one poison run cannot dam the stream.  For unordered
    backends, records pass through immediately (deduplicated).
    """

    def __init__(
        self,
        target: Sequence[int],
        journal: CheckpointJournal,
        on_record: Optional[RecordCallback],
        ordered: bool,
    ) -> None:
        self.target = list(target)
        self.journal = journal
        self.on_record = on_record
        self.ordered = ordered
        self._buffer: Dict[int, RunRecord] = {}
        self._ptr = 0
        self._seen: Set[int] = set()

    def offer(self, index: int, record: RunRecord, skip: Set[int]) -> None:
        if self.on_record is None:
            return
        if not self.ordered:
            if index not in self._seen:
                self._seen.add(index)
                self.on_record(index, record)
            return
        self._buffer[index] = record
        self._release(skip, replay=False)

    def drain(self, skip: Set[int]) -> None:
        """Release everything releasable, replaying journal-only gaps."""
        if self.on_record is not None and self.ordered:
            self._release(skip, replay=True)

    def _release(self, skip: Set[int], replay: bool) -> None:
        while self._ptr < len(self.target):
            index = self.target[self._ptr]
            if index in skip:
                self._ptr += 1
                continue
            if index in self._buffer:
                record = self._buffer.pop(index)
            elif replay and index in self.journal:
                record = self.journal.replay(index)
            else:
                return
            self._ptr += 1
            self.on_record(index, record)


class SupervisedBackend(DispatchBackend):
    """Fault-tolerant wrapper around any dispatch backend (see module doc).

    ``on_event`` (optional) receives every structured supervision event
    as it is journaled — the service front end forwards these into job
    status.  ``fault_plan`` opts the campaign into the deterministic
    chaos harness (:mod:`repro.service.faults`).
    """

    def __init__(
        self,
        inner: DispatchBackend,
        policy: Optional[RetryPolicy] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        super().__init__()
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.on_event = on_event
        self.fault_plan = fault_plan
        self.ordered = inner.ordered
        #: Indices excluded by quarantine as of the last ``run`` call
        #: (both newly quarantined and previously quarantined ones).
        self.quarantined: List[int] = []
        #: Structured events of the last ``run`` call, in order.
        self.events: List[Dict[str, Any]] = []
        self._tiers: Optional[List[DispatchBackend]] = None
        self._active: Optional[DispatchBackend] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        """The wrapper is transparent: it reports the primary tier's name
        (tier names in retry/degrade events identify the real backends)."""
        return self.inner.name

    # ----------------------------------------------------------- lifecycle
    def _build_tiers(self) -> List[DispatchBackend]:
        if self._tiers is None:
            from repro.service.remote import RemoteBackend

            tiers: List[DispatchBackend] = [self.inner]
            if isinstance(self.inner, RemoteBackend):
                # Remote and loopback-shard dispatch degrade to the local
                # pool with the same runner options.
                opts = self.inner.options
                tiers.append(
                    PoolBackend(
                        jobs=opts["jobs"],
                        chunksize=opts["chunksize"],
                        build_cache=opts["build_cache"],
                        batch_seeds=opts["batch_seeds"],
                        fault_plan=self.fault_plan,
                    )
                )
            if not isinstance(self.inner, SerialBackend):
                tiers.append(
                    SerialBackend(
                        timeout=self.policy.run_timeout,
                        fault_plan=self.fault_plan,
                    )
                )
            self._tiers = tiers
        return self._tiers

    def cancel(self) -> None:
        super().cancel()
        active = self._active
        if active is not None:
            active.cancel()

    def abort(self) -> None:
        super().abort()
        active = self._active
        if active is not None:
            active.abort()

    def close(self) -> None:
        for tier in self._tiers or [self.inner]:
            tier.close()

    # ------------------------------------------------------------- running
    def run(
        self,
        sweep: Sweep,
        indices: Sequence[int],
        journal: CheckpointJournal,
        on_record: Optional[RecordCallback] = None,
    ) -> None:
        policy = self.policy
        target = sorted(int(index) for index in indices)
        self.events = []
        self.quarantined = []
        if not target:
            return
        if self.fault_plan is not None and self.fault_plan.scratch is None:
            self.fault_plan.bind(journal.path + ".faults")
        qpath = quarantine_path(journal.path)
        quarantine_set: Set[int] = {
            int(entry["index"]) for entry in load_quarantine(qpath)
        }
        target_set = set(target)
        emitter = _Emitter(target, journal, on_record, ordered=self.ordered)
        appended = [0]

        def wrapped(index: int, record: RunRecord) -> None:
            emitter.offer(index, record, quarantine_set)
            if self.fault_plan is not None:
                appended[0] += 1
                if self.fault_plan.take_torn_tail(appended[0]):
                    _tear_journal_tail(journal)
                    raise InjectedFault("injected torn journal tail")

        rng = random.Random(policy.seed)
        attempt_histories: Dict[int, List[Dict[str, str]]] = {}
        tiers = self._build_tiers()
        tier = 0
        tier_failures = 0
        attempt_no = 0
        try:
            while True:
                pending = [
                    index
                    for index in journal.pending_indices()
                    if index in target_set and index not in quarantine_set
                ]
                if not pending or self._cancel.is_set() or self._stop.is_set():
                    break
                backend = tiers[tier]
                backend.reset()
                self._active = backend
                attempt_no += 1
                try:
                    error, timed_out = self._attempt(
                        backend, sweep, pending, journal, wrapped
                    )
                finally:
                    self._active = None
                # Adopt whatever the attempt left on disk — streamed-in
                # shard records, a torn tail to discard — before deciding.
                journal.reload()
                emitter.drain(quarantine_set)
                still = [
                    index
                    for index in journal.pending_indices()
                    if index in target_set and index not in quarantine_set
                ]
                if error is None and not timed_out and not still:
                    break
                if self._cancel.is_set() or backend.cancelled or self._stop.is_set():
                    break
                if isinstance(backend, SerialBackend):
                    # Precise failures: charge the specific runs, and
                    # quarantine the ones that exhausted their budget.
                    for index, kind, detail in backend.failures:
                        history = attempt_histories.setdefault(index, [])
                        history.append({"kind": kind, "detail": detail})
                        if len(history) >= policy.max_attempts:
                            self._quarantine(
                                sweep, index, history, journal, qpath, quarantine_set
                            )
                self._emit(
                    journal,
                    "retry",
                    attempt=attempt_no,
                    backend=backend.name,
                    pending=len(still),
                    timed_out=timed_out,
                    error=_describe(error),
                )
                tier_failures += 1
                if tier_failures >= policy.backend_attempts and tier + 1 < len(tiers):
                    self._emit(
                        journal,
                        "degrade",
                        from_backend=tiers[tier].name,
                        to_backend=tiers[tier + 1].name,
                        after_failures=tier_failures,
                    )
                    tier += 1
                    tier_failures = 0
                delay = policy.backoff(attempt_no, rng)
                if delay > 0:
                    time.sleep(delay)
        finally:
            emitter.drain(quarantine_set)
            self.quarantined = sorted(quarantine_set)

    def _attempt(
        self,
        backend: DispatchBackend,
        sweep: Sweep,
        pending: List[int],
        journal: CheckpointJournal,
        on_record: RecordCallback,
    ) -> Tuple[Optional[BaseException], bool]:
        """One attempt on one tier; returns ``(error, watchdog_fired)``.

        Without a ``run_timeout`` the attempt runs inline.  With one, it
        runs in a thread while this (supervisor) thread watches
        ``backend.last_progress`` — no progress for ``run_timeout`` +
        grace means the attempt is aborted and counted as failed.
        """
        if self.policy.run_timeout is None:
            try:
                backend.run(sweep, pending, journal, on_record=on_record)
                return None, False
            except Exception as exc:
                return exc, False
        box: Dict[str, BaseException] = {}

        def attempt() -> None:
            try:
                backend.run(sweep, pending, journal, on_record=on_record)
            except BaseException as exc:  # surfaced below, in this thread
                box["error"] = exc

        thread = threading.Thread(
            target=attempt, name="supervised-attempt", daemon=True
        )
        threshold = self.policy.run_timeout + WATCHDOG_GRACE
        thread.start()
        while True:
            thread.join(timeout=0.2)
            if not thread.is_alive():
                return box.get("error"), False
            if self._cancel.is_set():
                backend.cancel()
            if self._stop.is_set():
                backend.abort()
            if time.monotonic() - backend.last_progress > threshold:
                backend.abort()
                thread.join(timeout=ABORT_JOIN)
                if thread.is_alive():  # pragma: no cover - backend bug guard
                    raise RuntimeError(
                        f"backend {backend.name!r} ignored abort() for "
                        f"{ABORT_JOIN:g}s after a watchdog timeout — refusing "
                        "to continue with a wedged attempt thread"
                    )
                return box.get("error"), True

    def _quarantine(
        self,
        sweep: Sweep,
        index: int,
        history: List[Dict[str, str]],
        journal: CheckpointJournal,
        qpath: str,
        quarantine_set: Set[int],
    ) -> None:
        quarantine_set.add(index)
        scenario = _scenario_at(sweep, index)
        append_quarantine(
            qpath,
            {
                "spec_digest": journal.spec_digest,
                "index": index,
                "seed": scenario.seed,
                "scenario": scenario.to_dict(),
                "attempts": list(history),
                "traceback": history[-1]["detail"],
            },
        )
        self._emit(
            journal,
            "quarantine",
            index=index,
            seed=scenario.seed,
            attempts=len(history),
            failure=history[-1]["kind"],
        )

    def _emit(self, journal: CheckpointJournal, kind: str, **data: Any) -> None:
        event = {"kind": kind, **data}
        journal.append_event(kind, **data)
        self.events.append(event)
        if self.on_event is not None:
            try:
                self.on_event(event)
            except Exception:  # pragma: no cover - observer must not kill us
                pass


def _describe(error: Optional[BaseException]) -> Optional[str]:
    if error is None:
        return None
    return "".join(
        traceback.format_exception_only(type(error), error)
    ).strip()[:2000]


def _tear_journal_tail(journal: CheckpointJournal) -> None:
    """Fault injection: leave a newline-less fragment at the journal tail,
    exactly as a crash between ``write`` and the line's newline would."""
    journal.close()
    with open(journal.path, "ab") as handle:
        handle.write(b'{"digest":"dead","index":')


def make_supervised(
    options: Optional[Mapping[str, Any]] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    host_registry: Optional[Any] = None,
    source: Optional[str] = None,
) -> DispatchBackend:
    """Build a (by default supervised) backend from one flat options mapping.

    Consumes the :data:`SUPERVISION_OPTIONS` keys — ``supervise`` (default
    True), the :class:`RetryPolicy` fields, and ``faults`` (a fault-plan
    spec string or dict) — and forwards the rest to
    :func:`~repro.service.backends.make_backend`.  ``supervise: False``
    returns the raw inner backend (the pre-supervision behaviour).
    """
    options = dict(options or {})
    supervise = bool(options.pop("supervise", True))
    plan = options.pop("faults", None)
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(plan)
    elif isinstance(plan, Mapping):
        plan = FaultPlan.from_dict(plan)
    run_timeout = options.pop("run_timeout", None)
    policy = RetryPolicy(
        max_attempts=int(options.pop("max_attempts", 3)),
        backend_attempts=int(options.pop("backend_attempts", 2)),
        run_timeout=float(run_timeout) if run_timeout is not None else None,
        backoff_base=float(options.pop("backoff_base", 0.5)),
        backoff_max=float(options.pop("backoff_max", 30.0)),
    )
    inner = make_backend(
        options, fault_plan=plan, host_registry=host_registry, source=source
    )
    if not supervise:
        return inner
    return SupervisedBackend(inner, policy=policy, on_event=on_event, fault_plan=plan)


def retry_quarantined(
    journal_path: str,
    backend_options: Optional[Mapping[str, Any]] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    sinks: Sequence[Any] = (),
    collect: bool = False,
) -> Tuple[int, Any]:
    """Re-dispatch a campaign's quarantined runs with a fresh attempt budget.

    Clears the quarantine file (runs that fail again are re-quarantined by
    the supervisor with fresh attempt histories) and resumes the campaign
    over the journal's pending set.  Returns ``(retried_count, outcome)``
    where ``outcome`` is the :class:`~repro.service.checkpoint.
    CheckpointOutcome` of the resume — status ``complete`` when every
    formerly-quarantined run now succeeded, ``partial`` when some are
    quarantined again.
    """
    from repro.service.checkpoint import run_checkpointed, resume_sweep

    qpath = quarantine_path(journal_path)
    entries = load_quarantine(qpath)
    write_quarantine(qpath, [])
    sweep = resume_sweep(journal_path)
    backend = make_supervised(backend_options, on_event=on_event)
    try:
        outcome = run_checkpointed(
            sweep,
            journal_path,
            backend=backend,
            sinks=sinks,
            collect=collect,
        )
    finally:
        backend.close()
    return len(entries), outcome
