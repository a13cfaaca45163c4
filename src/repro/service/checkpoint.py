"""Checkpointed campaign execution: resume-safe driver over any backend.

:func:`run_checkpointed` is the one entry point the CLI verbs and the
service front end share.  It opens (or creates) the sweep's checkpoint
journal, executes only the pending runs through the chosen dispatch
backend, and delivers the merged campaign to the caller's sinks in
expansion order.  Whether the campaign ran cold, resumed three times, or
was merged from four agent-run shards, the sinks always see the same
records in the same order.

One in-order releaser makes that so.  It replays the journaled prefix,
passes each live record that lands at its pointer straight to the sinks
and replays the journaled records this uncovers; a record that arrives
ahead of the pointer waits in the journal.  A cold run through a backend
that completes in expansion order never reads the journal, and a resume
replays only what was journaled before it, verifying each digest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.campaign.records import RunRecord
from repro.campaign.spec import Sweep
from repro.service.backends import DispatchBackend, PoolBackend
from repro.service.journal import CheckpointJournal

__all__ = ["CheckpointOutcome", "run_checkpointed"]


@dataclass
class CheckpointOutcome:
    """What one :func:`run_checkpointed` call did.

    ``resumed`` counts the records found already complete in the journal
    when the call started; ``executed`` counts the runs performed by this
    call.  ``resumed + executed == total`` when ``status`` is
    ``"complete"``; a supervised campaign that quarantined poison runs
    ends ``"partial"`` (the missing indices are in ``quarantined``), and
    a cancelled one ends ``"cancelled"``.
    """

    journal_path: str
    spec_digest: str
    total: int
    resumed: int
    executed: int
    records: Optional[List[RunRecord]] = field(default=None, repr=False)
    status: str = "complete"
    quarantined: List[int] = field(default_factory=list)


class _InOrderReleaser:
    """Hands each journaled record to ``deliver`` once, in expansion order.

    ``next`` is the first index not yet released; no record is buffered,
    because anything that arrives ahead of it is already in the journal.
    :meth:`offer` may be called from several dispatch threads at once.
    """

    def __init__(
        self, journal: CheckpointJournal, deliver: Callable[[RunRecord], None]
    ) -> None:
        self.journal = journal
        self.deliver = deliver
        self.next = 0
        self._lock = threading.Lock()

    def release_prefix(self, stop: int) -> None:
        """Replay the completed prefix ``[0, stop)``."""
        for _index, record in islice(self.journal.iter_completed(), stop):
            self.deliver(record)
        self.next = stop

    def offer(self, index: int, record: RunRecord) -> None:
        """A live record: release it if it is next, then what it uncovers."""
        with self._lock:
            if index != self.next:
                return  # released already, or waiting in the journal
            self.deliver(record)
            self.next += 1
            while self.next in self.journal:
                self.deliver(self.journal.replay(self.next))
                self.next += 1

    def finish(self) -> None:
        """Replay the rest, skipping runs that never completed."""
        with self._lock:
            for index in range(self.next, self.journal.total):
                if index in self.journal:
                    self.deliver(self.journal.replay(index))


def run_checkpointed(
    sweep: Sweep,
    journal_path: str,
    backend: Optional[DispatchBackend] = None,
    sinks: Sequence[Any] = (),
    meta: Optional[Mapping[str, Any]] = None,
    collect: bool = False,
    on_record: Optional[Callable[[int, RunRecord], None]] = None,
) -> CheckpointOutcome:
    """Run (or resume) a sweep under a checkpoint journal.

    * ``backend`` defaults to a fresh serial :class:`PoolBackend`, closed on
      return; a caller-provided backend is left open (it may be warm and
      shared across campaigns, as in the service front end).
    * ``sinks`` receive every completed record of the sweep once, in
      expansion order, then are closed (mirroring
      :meth:`CampaignRunner.stream`); sinks without a ``close`` are fine.
    * ``on_record`` fires live as *newly executed* runs finish, in backend
      completion order — progress reporting, not output (replayed records
      do not pass through it).
    * ``collect=True`` additionally buffers the merged records in memory
      (:attr:`CheckpointOutcome.records`) — avoid for huge campaigns.
    """
    owns_backend = backend is None
    if backend is None:
        backend = PoolBackend()
    journal = CheckpointJournal.open_or_create(journal_path, sweep, meta=meta)
    try:
        pending = journal.pending_indices()
        resumed = journal.total - len(pending)
        records: Optional[List[RunRecord]] = [] if collect else None

        def deliver(record: RunRecord) -> None:
            if records is not None:
                records.append(record)
            for sink in sinks:
                sink.write(record)

        releaser = _InOrderReleaser(journal, deliver)

        def live(index: int, record: RunRecord) -> None:
            releaser.offer(index, record)
            if on_record is not None:
                on_record(index, record)

        try:
            releaser.release_prefix(pending[0] if pending else journal.total)
            backend.run(sweep, pending, journal, on_record=live)
            status, missing = _conclude(journal, journal_path, backend)
            releaser.finish()
        finally:
            for sink in sinks:
                close = getattr(sink, "close", None)
                if close is not None:
                    close()
        return CheckpointOutcome(
            journal_path=str(journal_path),
            spec_digest=journal.spec_digest,
            total=journal.total,
            resumed=resumed,
            executed=len(pending) - len(missing),
            records=records,
            status=status,
            quarantined=sorted(getattr(backend, "quarantined", []) or []),
        )
    finally:
        journal.close()
        if owns_backend:
            backend.close()


def _conclude(
    journal: CheckpointJournal, journal_path: str, backend: DispatchBackend
) -> Any:
    """Decide the campaign's terminal status and record it in the journal.

    Every pending run must be accounted for: by completion, by the
    backend's quarantine list (status ``partial``), or by a cancellation
    (status ``cancelled``).  Unexplained gaps stay a hard error — a
    backend silently under-delivering is a bug, not a degraded outcome.
    """
    missing = journal.pending_indices()
    quarantined = set(getattr(backend, "quarantined", []) or [])
    cancelled = bool(getattr(backend, "cancelled", False))
    if not missing:
        status = "complete"
    elif cancelled:
        status = "cancelled"
    elif set(missing) <= quarantined:
        status = "partial"
    else:
        raise RuntimeError(
            f"{journal_path}: backend finished but {len(missing)} run(s) "
            f"have no completion record (first: {missing[0]})"
        )
    journal.append_event(status, missing=len(missing))
    return status, missing


def resume_sweep(journal_path: str) -> Sweep:
    """The sweep a journal belongs to, reconstructed from its header."""
    journal = CheckpointJournal.open(journal_path)
    try:
        return journal.sweep
    finally:
        journal.close()

