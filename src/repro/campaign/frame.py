"""Record sinks: the one path from campaign records to files and tables.

A campaign pushes every finished record, in sweep-expansion order, through
:class:`RecordSink` objects:

* :class:`JsonlRecordSink` — one JSON object per line (scenario +
  metrics), flushed per record; constant memory for arbitrarily long
  sweeps and trivially resumable/concatenable.
* :class:`CsvRecordSink` — one flat row per record; the header is fixed
  from the first record (plus optionally declared columns), later columns
  unknown to the header are dropped.
* :class:`JsonDocumentSink` — the ``{"records": [...]}`` document written
  at :meth:`close` (read back by :func:`repro.campaign.records.load_json`);
  retains all records in memory until then.
* :class:`TableAggregator` — constant-memory grouped mean/CI aggregation
  (one :class:`~repro.analysis.stats.StreamingStats` per group × metric),
  the only grouped aggregation of the campaign layer.

``iter_jsonl`` reads a JSONL stream back as records without loading the
whole file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.stats import StreamingStats
from repro.campaign.records import RunRecord, _SCENARIO_COLUMNS
from repro.campaign.spec import Scenario


def _open_for_write(path: Union[str, Any]):
    """Return ``(handle, owned)`` for a path or an already-open file."""
    if hasattr(path, "write"):
        return path, False
    return open(path, "w", encoding="utf-8", newline=""), True


# --------------------------------------------------------------------- sinks
class RecordSink:
    """Base class of streaming record consumers.

    :meth:`write` is called once per finished record, in deterministic
    sweep-expansion order; :meth:`close` once after the campaign.
    ``written`` counts the records seen.
    """

    def __init__(self) -> None:
        self.written = 0

    def write(self, record: RunRecord) -> None:
        self.written += 1

    def close(self) -> None:
        """Release resources; safe to call more than once."""


class JsonlRecordSink(RecordSink):
    """Stream records to a JSONL file, one flushed line per record.

    ``meta`` optionally writes a leading ``{"_meta": {...}}`` line (e.g.
    the effective pool configuration of the producing sweep);
    :func:`iter_jsonl` skips such lines, so annotated streams stay
    readable and concatenable.
    """

    def __init__(self, path: Union[str, Any], meta: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__()
        self.path = path
        self._handle, self._owned = _open_for_write(path)
        if meta:
            self._handle.write(json.dumps({"_meta": dict(meta)}, sort_keys=True) + "\n")
            self._handle.flush()

    def write(self, record: RunRecord) -> None:
        super().write(record)
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._owned and self._handle is not None:
            # fsync before closing so a crash *after* a clean close can
            # never lose flushed records — the checkpoint journal (and any
            # resume logic reading this stream back) relies on closed
            # files being durably complete.
            self._handle.flush()
            _fsync_handle(self._handle)
            self._handle.close()
            self._handle = None


def _fsync_handle(handle: Any) -> None:
    """Force a file handle's buffers to stable storage; no-op for
    pseudo-files (StringIO and friends) that have no file descriptor."""
    try:
        os.fsync(handle.fileno())
    except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
        pass


class CsvRecordSink(RecordSink):
    """Stream records to CSV with a header fixed at the first record.

    ``columns`` optionally pre-declares metric/parameter columns (useful
    when later records may carry cells the first record lacks); anything
    not in the header when it finally appears is dropped, which is the
    price of not buffering the whole campaign.
    """

    def __init__(self, path: Union[str, Any], columns: Sequence[str] = ()) -> None:
        super().__init__()
        self.path = path
        self._declared = list(columns)
        self._handle, self._owned = _open_for_write(path)
        self._writer: Optional[csv.DictWriter] = None

    def write(self, record: RunRecord) -> None:
        super().write(record)
        row = record.row()
        if self._writer is None:
            header = list(_SCENARIO_COLUMNS)
            for name in sorted(record.scenario.params) + sorted(record.metrics):
                if name not in header:
                    header.append(name)
            for name in self._declared:
                if name not in header:
                    header.append(name)
            self._writer = csv.DictWriter(
                self._handle, fieldnames=header, restval="", extrasaction="ignore"
            )
            self._writer.writeheader()
        self._writer.writerow(row)
        self._handle.flush()

    def close(self) -> None:
        if self._owned and self._handle is not None:
            self._handle.close()
            self._handle = None


class JsonDocumentSink(RecordSink):
    """Accumulate records and write one ``{"records": [...]}`` JSON document.

    Unlike the JSONL sink this retains every record dictionary until
    :meth:`close` (:func:`repro.campaign.records.load_json` reads the
    document back).  ``meta`` optionally adds a top-level ``"meta"`` object to the document
    (ignored by ``load_json``).
    """

    def __init__(self, path: Union[str, Any], meta: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__()
        self.path = path
        self.meta = dict(meta) if meta else None
        self._records: List[Dict[str, Any]] = []

    def write(self, record: RunRecord) -> None:
        super().write(record)
        self._records.append(record.to_dict())

    def close(self) -> None:
        if self._records is None:
            return
        document: Dict[str, Any] = {"records": self._records}
        if self.meta is not None:
            document["meta"] = self.meta
        handle, owned = _open_for_write(self.path)
        try:
            handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
        finally:
            if owned:
                handle.close()
        self._records = None


class TableAggregator(RecordSink):
    """Constant-memory grouped aggregation over a record stream.

    Groups by scenario fields and parameters (never by metrics, so a
    metric named like a sweep axis cannot shadow the axis) and keeps one
    :class:`StreamingStats` per ``(metric, group)`` — memory is bounded by
    the grid size, not the seed count.  A record lacking a metric simply
    does not count towards that metric's groups; ``by=()`` aggregates the
    whole stream as one group keyed ``()``.
    """

    def __init__(self, by: Sequence[str] = ("mac",)) -> None:
        super().__init__()
        self.by = tuple(by)
        self._stats: Dict[str, Dict[Tuple[Any, ...], StreamingStats]] = {}

    def _group_key(self, scenario: Scenario) -> Tuple[Any, ...]:
        key = []
        for name in self.by:
            if name == "experiment":
                key.append(scenario.experiment)
            elif name == "mac":
                key.append(scenario.mac)
            elif name == "propagation":
                key.append(scenario.propagation)
            elif name == "seed":
                key.append(scenario.seed)
            else:
                key.append(scenario.params.get(name))
        return tuple(key)

    def write(self, record: RunRecord) -> None:
        super().write(record)
        key = self._group_key(record.scenario)
        for metric, value in record.metrics.items():
            self._stats.setdefault(metric, {}).setdefault(key, StreamingStats()).push(
                float(value)
            )

    def metric_names(self) -> List[str]:
        """Metric names seen so far, sorted."""
        return sorted(self._stats)

    def groups(self, metric: str) -> Dict[Tuple[Any, ...], Dict[str, Any]]:
        """``{"mean", "ci95", "n"}`` per group, in first-appearance order
        (empty for a metric no record carried)."""
        result: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        for key, stats in self._stats.get(metric, {}).items():
            mean, half_width = stats.ci95()
            result[key] = {"mean": mean, "ci95": half_width, "n": stats.n}
        return result


def iter_jsonl_objects(handle: Any, source: str = "<stream>") -> Iterator[Any]:
    """Yield parsed JSON objects from a line-delimited stream.

    A final line that fails to parse — the signature of a crash mid-write
    (the producing process died between ``write`` and the newline hitting
    disk) — is skipped with a :class:`RuntimeWarning` instead of raising,
    so a truncated stream reads back as its complete prefix.  A malformed
    line anywhere *before* the tail still raises: that is corruption, not
    truncation.  Blank lines are ignored.  The checkpoint journal builds
    on this exact behaviour.
    """
    previous: Optional[str] = None
    for line in handle:
        if previous is not None and previous.strip():
            yield json.loads(previous)
        previous = line
    if previous is None or not previous.strip():
        return
    try:
        yield json.loads(previous)
    except json.JSONDecodeError:
        warnings.warn(
            f"{source}: skipping truncated trailing line "
            f"({len(previous)} bytes) — likely a crash mid-write",
            RuntimeWarning,
            stacklevel=2,
        )


def iter_jsonl(source: Union[str, Any]) -> Iterator[RunRecord]:
    """Yield records from a JSONL stream without loading the whole file.

    ``{"_meta": ...}`` annotation lines (see :class:`JsonlRecordSink`) are
    skipped, so annotated and plain streams read back identically.  A
    crash-truncated final line is skipped with a warning (see
    :func:`iter_jsonl_objects`) instead of raising, so the stream of an
    interrupted sweep stays loadable.
    """

    def records(handle, name: str) -> Iterator[RunRecord]:
        for data in iter_jsonl_objects(handle, source=name):
            if "_meta" in data and "scenario" not in data:
                continue
            yield RunRecord.from_dict(data)

    if hasattr(source, "read"):
        yield from records(source, "<stream>")
        return
    with open(source, "r", encoding="utf-8") as handle:
        yield from records(handle, str(source))
