"""Append-only checkpoint journal: crash-safe progress for long campaigns.

A :class:`CheckpointJournal` is one JSONL file per campaign:

* line 1 — the **manifest header**: journal format version, the sweep's
  canonical dictionary, its spec digest and the total run count;
* completion lines — one per finished run: the run's expansion index,
  its serialised :class:`~repro.campaign.records.RunRecord` and a
  content digest of that serialisation;
* event lines — ``{"event": {"kind": ...}}`` structured audit records
  (retries, backend fallbacks, quarantines, the campaign's terminal
  ``partial``/``cancelled``/``complete`` status).

Writes are atomic per line (one buffered ``write`` of the whole line,
flushed before returning), so a crash can tear at most the final line —
and :meth:`open` detects a torn tail (unparseable last line) and discards
it with a warning instead of failing, via the same tolerant reader that
backs :func:`repro.campaign.frame.iter_jsonl`.  A torn record is simply
re-run on resume.  ``close`` fsyncs, so a cleanly closed journal is
durable.

Resume never trusts position: :meth:`pending_indices` recomputes the
unfinished set from the indices actually present, so journals whose
completions arrived out of expansion order (shard merges, multiple resume
sessions) resume exactly as well as straight-line ones.  :meth:`replay`
re-reads a record by seeking its byte offset and verifies its content
digest, so corrupted mid-file lines surface as errors rather than as
silently-wrong merged results.
"""

from __future__ import annotations

import io
import json
import os
import warnings
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.campaign.frame import iter_jsonl_objects
from repro.campaign.records import RunRecord
from repro.campaign.spec import Sweep
from repro.service.manifest import payload_digest, record_digest, sweep_digest

__all__ = [
    "CheckpointJournal",
    "JournalError",
    "SweepMismatchError",
    "verify_completion",
]

#: Journal file format version (the header's ``version`` field).
JOURNAL_VERSION = 1

#: Event kinds that set the campaign's terminal status (last one wins).
_STATUS_KINDS = ("complete", "partial", "cancelled")


class JournalError(ValueError):
    """A journal file is missing, corrupt, or structurally invalid."""


class SweepMismatchError(JournalError):
    """A journal belongs to a different sweep than the one being resumed."""


def verify_completion(
    data: Mapping[str, Any], path: str = "<stream>"
) -> Tuple[int, RunRecord]:
    """Digest-verify one parsed completion payload, wherever it came from.

    The single trust gate for completion records: local replay and the
    remote journal stream merge both go through it, so a record crossing
    a network link gets exactly the verification a local re-read does.
    Returns ``(index, record)``; raises :class:`JournalError` on a
    malformed payload or a content digest mismatch.
    """
    try:
        index = int(data["index"])
        record_data = data["record"]
    except (KeyError, TypeError, ValueError):
        raise JournalError(f"{path}: malformed completion record") from None
    if record_digest(record_data) != data.get("digest"):
        raise JournalError(
            f"{path}: digest mismatch for run {index} — journal "
            "corrupted, delete it and re-run"
        )
    return index, RunRecord.from_dict(record_data)


class CheckpointJournal:
    """One campaign's manifest header plus per-run completion records.

    Construct through :meth:`create`, :meth:`open` or
    :meth:`open_or_create`; use as a context manager or call
    :meth:`close` (flush + fsync) when done.  Memory is O(completed
    runs) *integers* — record payloads stay on disk and are re-read by
    offset on :meth:`replay`.
    """

    def __init__(self, path: str, header: Dict[str, Any], offsets: Dict[int, int]) -> None:
        self.path = str(path)
        self._header = header
        self._offsets = offsets
        self._append_handle: Optional[io.BufferedWriter] = None
        self._read_handle: Optional[io.BufferedReader] = None
        self._sweep: Optional[Sweep] = None
        #: When open() discarded a torn tail, the byte offset the next
        #: append must truncate to first — the torn fragment has no
        #: newline, so appending behind it would glue two lines together.
        self._truncate_to: Optional[int] = None
        #: Parsed event payloads, in file order.
        self._events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------ creation
    @classmethod
    def create(
        cls, path: str, sweep: Sweep, meta: Optional[Mapping[str, Any]] = None
    ) -> "CheckpointJournal":
        """Start a fresh journal for the sweep (overwrites an existing file)."""
        header = {
            "checkpoint": {
                "version": JOURNAL_VERSION,
                "spec_digest": sweep_digest(sweep),
                "total": sweep.size,
                "sweep": sweep.to_dict(),
                "meta": dict(meta) if meta else {},
            }
        }
        journal = cls(path, header["checkpoint"], {})
        with open(path, "wb") as handle:
            handle.write(_encode_line(header))
            handle.flush()
            os.fsync(handle.fileno())
        return journal

    @classmethod
    def open(cls, path: str, sweep: Optional[Sweep] = None) -> "CheckpointJournal":
        """Load an existing journal: header + completed-run offsets + events.

        A truncated final line is discarded (with a warning); any other
        malformed content — a completion index outside ``[0, total)``, or
        a ``sealed`` event left by the removed journal compaction — raises
        :class:`JournalError` and leaves the file untouched.  When ``sweep`` is
        given, its spec digest must match the journal's —
        :class:`SweepMismatchError` otherwise, so a resume can never mix
        records of two different campaigns.
        """
        offsets: Dict[int, int] = {}
        events: List[Dict[str, Any]] = []
        header: Optional[Dict[str, Any]] = None
        total = 0
        offset = 0
        with open(path, "rb") as handle:
            # Track byte offsets by line length; iterate raw lines and
            # parse through the shared tolerant reader semantics inline
            # (we need offsets, which iter_jsonl_objects cannot provide).
            lines = handle.readlines()
        torn_tail = 0
        if lines and not lines[-1].endswith(b"\n"):
            # A final line missing its newline is a torn append even when
            # its JSON happens to parse: appending behind it would glue
            # two lines together.  Discard it — the run (or event) it
            # carried is simply redone, bit-identically.
            torn_tail = len(lines[-1])
            warnings.warn(
                f"{path}: skipping truncated trailing line "
                f"({torn_tail} bytes) — likely a crash mid-write",
                RuntimeWarning,
            )
            lines = lines[:-1]
        try:
            parsed = list(iter_jsonl_objects(_decoded(lines), source=str(path)))
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"{path}: corrupt journal line {exc.lineno}: {exc.msg} — only "
                "the *final* line may be torn (crash mid-write); mid-file "
                "corruption cannot be resumed from"
            ) from None
        size = sum(len(raw) for raw in lines) + torn_tail
        consumed = 0
        for raw in lines:
            if consumed >= len(parsed):
                break  # tail line(s) discarded by the tolerant reader
            if not raw.strip():
                offset += len(raw)
                continue
            data = parsed[consumed]
            consumed += 1
            if header is None:
                if not isinstance(data, dict) or "checkpoint" not in data:
                    raise JournalError(
                        f"{path}: first line is not a checkpoint header"
                    )
                header = data["checkpoint"]
                if header.get("version") != JOURNAL_VERSION:
                    raise JournalError(
                        f"{path}: unsupported journal version {header.get('version')!r}"
                    )
                total = int(header.get("total", 0))
            elif isinstance(data, dict) and "event" in data:
                event = data["event"]
                if not isinstance(event, dict) or "kind" not in event:
                    raise JournalError(
                        f"{path}: malformed event line at byte {offset}"
                    )
                if event["kind"] == "sealed":
                    raise JournalError(
                        f"{path}: sealed segment event at byte {offset} — "
                        "journal compaction was removed; re-run the campaign "
                        "into a fresh journal"
                    )
                events.append(event)
            else:
                try:
                    index = int(data["index"])
                except (KeyError, TypeError, ValueError):
                    raise JournalError(
                        f"{path}: malformed completion record at byte {offset}"
                    ) from None
                if not 0 <= index < total:
                    raise JournalError(
                        f"{path}: completion record at byte {offset} has run "
                        f"index {index} outside [0, {total})"
                    )
                offsets[index] = offset
            offset += len(raw)
        if header is None:
            raise JournalError(f"{path}: no readable checkpoint header")
        journal = cls(path, header, offsets)
        journal._events = events
        if offset < size:
            journal._truncate_to = offset
        if sweep is not None and sweep_digest(sweep) != journal.spec_digest:
            raise SweepMismatchError(
                f"{path}: journal was written for spec {journal.spec_digest[:12]}, "
                f"not {sweep_digest(sweep)[:12]} — refusing to mix campaigns"
            )
        return journal

    @classmethod
    def open_or_create(
        cls, path: str, sweep: Sweep, meta: Optional[Mapping[str, Any]] = None
    ) -> "CheckpointJournal":
        """Open ``path`` if it holds a journal for this sweep, else create one."""
        if os.path.exists(path) and os.path.getsize(path) > 0:
            return cls.open(path, sweep=sweep)
        return cls.create(path, sweep, meta=meta)

    # ------------------------------------------------------------ identity
    @property
    def spec_digest(self) -> str:
        return self._header["spec_digest"]

    @property
    def total(self) -> int:
        return int(self._header["total"])

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self._header.get("meta", {}))

    @property
    def sweep(self) -> Sweep:
        """The journal's sweep, reconstructed from the manifest header."""
        if self._sweep is None:
            self._sweep = Sweep.from_dict(self._header["sweep"])
        return self._sweep

    # -------------------------------------------------------------- events
    @property
    def events(self) -> List[Dict[str, Any]]:
        """All structured event payloads, in write order."""
        return list(self._events)

    @property
    def status(self) -> Optional[str]:
        """The campaign's recorded terminal status, if any (last wins)."""
        for event in reversed(self._events):
            kind = event.get("kind")
            if kind in _STATUS_KINDS:
                return kind
        return None

    def append_event(self, kind: str, **data: Any) -> None:
        """Append one structured event line (audit trail, not a completion)."""
        event = {"kind": str(kind), **data}
        handle = self._appender()
        handle.write(_encode_line({"event": event}))
        handle.flush()
        self._events.append(event)

    # ------------------------------------------------------------ progress
    def completed_indices(self) -> Set[int]:
        return set(self._offsets)

    def pending_indices(self) -> List[int]:
        """Expansion indices with no completion record yet, sorted."""
        return [index for index in range(self.total) if index not in self._offsets]

    def __contains__(self, index: int) -> bool:
        return index in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    # ------------------------------------------------------------- writing
    def append(self, index: int, record: RunRecord) -> None:
        """Append one completion record; atomic per line, flushed on return."""
        index = int(index)
        if not 0 <= index < self.total:
            raise ValueError(f"run index {index} outside [0, {self.total})")
        # Hot path: one canonical serialisation, digested as written —
        # json.loads + record_digest at replay reproduces the same digest.
        # Key order (digest < index < record) matches sort_keys output.
        payload = json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))
        line = (
            f'{{"digest":"{payload_digest(payload)}","index":{index},'
            f'"record":{payload}}}\n'
        ).encode("utf-8")
        handle = self._appender()
        offset = handle.tell()
        handle.write(line)
        handle.flush()
        self._offsets[index] = offset

    def _appender(self) -> io.BufferedWriter:
        if self._append_handle is None:
            if self._truncate_to is not None:
                handle = open(self.path, "r+b")
                handle.seek(self._truncate_to)
                handle.truncate()
                self._append_handle = handle
                self._truncate_to = None
            else:
                self._append_handle = open(self.path, "ab")
        return self._append_handle

    # ------------------------------------------------------------- reading
    def replay(self, index: int) -> RunRecord:
        """Re-read one completed record by offset, verifying its digest."""
        index = int(index)
        try:
            offset = self._offsets[index]
        except KeyError:
            raise KeyError(
                f"{self.path}: run {index} has no completion record"
            ) from None
        # Appends since the last replay must be visible: the reader is
        # reopened lazily and appends always flush, so a plain seek works.
        if self._read_handle is None:
            self._read_handle = open(self.path, "rb")
        self._read_handle.seek(offset)
        raw = self._read_handle.readline()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            raise JournalError(
                f"{self.path}: corrupt completion record for run {index} "
                f"at byte {offset}"
            ) from None
        if int(data.get("index", -1)) != index:
            raise JournalError(
                f"{self.path}: offset table out of sync at run {index}"
            )
        _, record = verify_completion(data, path=self.path)
        return record

    def iter_completed(self) -> Iterator[Tuple[int, RunRecord]]:
        """Yield ``(index, record)`` for every completion, in index order."""
        for index in sorted(self._offsets):
            yield index, self.replay(index)

    # ------------------------------------------------------------ lifecycle
    def reload(self) -> None:
        """Re-scan the file on disk and adopt its state (offsets, events).

        Used after an external process (a shard merge) or a recovery
        step (torn-tail discard after a failed attempt) may have changed
        the file behind this instance's back.
        """
        self.close()
        fresh = CheckpointJournal.open(self.path)
        self._header = fresh._header
        self._offsets = fresh._offsets
        self._events = fresh._events
        self._truncate_to = fresh._truncate_to
        self._sweep = None

    def close(self) -> None:
        """Flush + fsync the append handle and release file handles."""
        if self._append_handle is not None:
            self._append_handle.flush()
            try:
                os.fsync(self._append_handle.fileno())
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            self._append_handle.close()
            self._append_handle = None
        if self._read_handle is not None:
            self._read_handle.close()
            self._read_handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CheckpointJournal(path={self.path!r}, "
            f"done={len(self)}/{self.total})"
        )


def _encode_line(data: Mapping[str, Any]) -> bytes:
    return (json.dumps(data, sort_keys=True) + "\n").encode("utf-8")


def _decoded(lines: List[bytes]) -> Iterator[str]:
    for raw in lines:
        yield raw.decode("utf-8", errors="replace")
