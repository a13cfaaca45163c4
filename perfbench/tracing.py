"""Traced units: spans around public calls, counters, and a thread sampler.

The tracer measures every layer from outside the program.  For the length
of one traced unit it wraps public functions and methods of ``repro``
(module attributes and class attributes, restored afterwards) so that
each call records a span: name, start, end, parent and unit.  Counters
are read from public attributes (``Simulator.events_executed``,
``SeedBatchExecutor.last_fallback_reason``, ``artifact_cache_stats``).

Self-time shares per ``repro`` package come from a sampling thread that
looks at the innermost Python frame of every thread doing campaign work:
the main thread and each thread seen executing a run (for the short
sweep, the pool backend's pump thread).  Threads parked in ``threading``
or ``queue`` waits are idle and not counted.  A deterministic profiler on
the main thread alone would miss the pump thread and distort the split.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.campaign import batch_runner, runner
from repro.campaign.runner import CampaignRunner
from repro.metrics.base import MetricCollector
from repro.scenario.artifacts import artifact_cache_stats
from repro.scenario.builder import ScenarioBuilder
from repro.service.journal import CheckpointJournal
from repro.service.supervisor import SupervisedBackend
from repro.sim.batch import SeedBatchExecutor
from repro.sim.engine import Simulator

#: ``repro`` packages whose self-time share is reported, in report order.
#: ``sim`` excludes ``sim.batch``, which is reported on its own.
PACKAGES = (
    "sim", "sim.batch", "core", "dsme", "net", "mac", "phy", "traffic",
    "scenario", "metrics", "campaign", "service",
)

#: Span names whose time is a layer of work inside ``campaign.execute``;
#: the rest of an execute span is campaign overhead.
_EXECUTE_PARTS = ("scenario.build", "sim.run_until", "batch.kernel", "metrics.finalize")

_IDLE_MODULES = ("threading", "queue", "selectors")

#: Seconds between samples; the interpreter's switch interval (5 ms by
#: default) bounds the effective rate while another thread runs Python.
SAMPLE_INTERVAL = 0.001

#: Traced units whose spans are written to the span file.
SPAN_FILE_UNITS = 10


def package_of(module: str) -> str:
    """The reported package of a module name (``other`` outside ``repro``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "sim" and len(parts) > 2 and parts[2] == "batch":
        return "sim.batch"
    return parts[1]


class Span:
    __slots__ = ("ident", "name", "start", "end", "parent", "unit", "busy")

    def __init__(self, ident: int, name: str, start: float, parent: Optional[int], unit: int):
        self.ident = ident
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        #: Time actually spent inside the call; differs from ``end - start``
        #: only for generators, which the caller resumes piecemeal.
        self.busy = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.ident, "name": self.name, "start": round(self.start, 7),
            "end": round(self.end, 7), "parent": self.parent, "unit": self.unit,
            "busy": round(self.busy, 7),
        }


class Tracer:
    """Spans, counters and samples of the traced units of one run."""

    def __init__(self, ref_repeats: int) -> None:
        self.ref_repeats = ref_repeats
        self.spans: List[Span] = []
        self.unit = -1
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._simulators: List[Simulator] = []
        self.events = 0
        self.batch_groups: List[Tuple[int, Optional[str]]] = []
        self.journal_bytes = 0
        self.replayed = 0
        self.exec_threads = {threading.main_thread().ident}
        self.samples: Dict[str, float] = {}
        self.unit_factors: Dict[int, float] = {}
        self.unit_runs: Dict[int, int] = {}
        self.failed_runs = 0
        self._cache_before: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._active = threading.Event()
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample_loop, name="perfbench-sampler", daemon=True)
        self._sampler.start()

    # ------------------------------------------------------------ spans
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A worker thread's first span is caused by whatever the main
        # thread is inside at the time (the backend's run call).
        origin = stack or self._main_stack
        parent = origin[-1].ident if origin else None
        span = Span(len(self.spans), name, time.perf_counter() - self.origin, parent, self.unit)
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self.origin
        span.busy += span.end - span.start
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _wrap(self, name: str, func: Callable[..., Any], exec_thread: bool = False):
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if exec_thread:
                tracer.exec_threads.add(threading.get_ident())
            span = tracer._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install(self) -> None:
        wrap = self._wrap
        self._patch(CampaignRunner, "run", wrap("campaign.run", CampaignRunner.run))
        self._patch(runner, "execute_scenario",
                    wrap("campaign.execute", runner.execute_scenario, exec_thread=True))
        self._patch(batch_runner, "execute_seed_batch",
                    wrap("campaign.execute", batch_runner.execute_seed_batch, exec_thread=True))
        self._patch(ScenarioBuilder, "build", wrap("scenario.build", ScenarioBuilder.build))
        self._patch(ScenarioBuilder, "build_dsme",
                    wrap("scenario.build", ScenarioBuilder.build_dsme))
        self._patch(Simulator, "run_until", wrap("sim.run_until", Simulator.run_until))
        self._patch(SupervisedBackend, "run", wrap("service.backend_run", SupervisedBackend.run))
        # prepare_star is reached through the batch runner's preparer table.
        preparers = batch_runner._PREPARERS
        original = preparers["testbed-star"]
        preparers["testbed-star"] = wrap("batch.prepare", original)
        self._patches.append((preparers, "testbed-star", original))
        self._install_counters()
        for cls in _collector_classes():
            if "finalize" in cls.__dict__:
                self._patch(cls, "finalize", wrap("metrics.finalize", cls.__dict__["finalize"]))

    def _install_counters(self) -> None:
        tracer = self
        init = Simulator.__init__

        @functools.wraps(init)
        def counting_init(sim: Simulator, *args: Any, **kwargs: Any) -> None:
            init(sim, *args, **kwargs)
            tracer._simulators.append(sim)

        self._patch(Simulator, "__init__", counting_init)

        batch_run = SeedBatchExecutor.run

        @functools.wraps(batch_run)
        def traced_batch(executor: SeedBatchExecutor, prepared: Any) -> Any:
            lanes = list(prepared)
            span = tracer._open("batch.kernel")
            try:
                return batch_run(executor, lanes)
            finally:
                tracer._close(span)
                tracer.batch_groups.append((len(lanes), executor.last_fallback_reason))

        self._patch(SeedBatchExecutor, "run", traced_batch)

        append = CheckpointJournal.append

        @functools.wraps(append)
        def traced_append(journal: CheckpointJournal, index: int, record: Any) -> None:
            size = os.path.getsize(journal.path)
            span = tracer._open("service.journal_append")
            try:
                append(journal, index, record)
            finally:
                tracer._close(span)
            tracer.journal_bytes += os.path.getsize(journal.path) - size

        self._patch(CheckpointJournal, "append", traced_append)

        iter_completed = CheckpointJournal.iter_completed

        @functools.wraps(iter_completed)
        def traced_iter(journal: CheckpointJournal) -> Iterator[Any]:
            span = tracer._open("service.replay")
            tracer._stack().pop()  # a generator's span must not parent the caller's
            span.busy = 0.0
            inner = iter_completed(journal)
            try:
                while True:
                    begin = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        span.busy += time.perf_counter() - begin
                        return
                    span.busy += time.perf_counter() - begin
                    tracer.replayed += 1
                    yield item
            finally:
                span.end = time.perf_counter() - tracer.origin

        self._patch(CheckpointJournal, "iter_completed", traced_iter)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ units
    def begin(self, unit: int) -> None:
        self.unit = unit
        self._cache_before = artifact_cache_stats()
        self._simulators = []
        self._install()
        root = self._open("unit")
        self._root = root
        self._active.set()

    def end(self) -> None:
        self._active.clear()
        self._close(self._root)
        self._uninstall()
        self.events += sum(sim.events_executed for sim in self._simulators)
        self._simulators = []
        after = artifact_cache_stats()
        self.cache_hits += after["hits"] - self._cache_before["hits"]
        self.cache_misses += after["misses"] - self._cache_before["misses"]

    def note_unit(self, sample: Any) -> None:
        """Attach the unit's reference factor (ref-s per wall-s) and counts."""
        from harness import ref_seconds

        self.unit_factors[sample.unit] = ref_seconds(1.0, sample.ref_wall, self.ref_repeats)
        self.unit_runs[sample.unit] = sample.executed
        self.failed_runs += sample.failed

    # ---------------------------------------------------------- sampler
    def _sample_loop(self) -> None:
        # Each sample is weighted by the time since the previous one: while
        # a thread runs Python the sampler waits for the interpreter lock
        # (up to the switch interval), while it blocks on I/O the sampler
        # wakes every millisecond, and unweighted counts would over-count I/O.
        me = threading.get_ident()
        last = time.perf_counter()
        while not self._stop.wait(SAMPLE_INTERVAL):
            now = time.perf_counter()
            weight, last = now - last, now
            if not self._active.is_set():
                continue
            frames = sys._current_frames()
            for ident in list(self.exec_threads):
                frame = frames.get(ident)
                if frame is None or ident == me:
                    continue
                module = frame.f_globals.get("__name__", "")
                if module.split(".")[0] in _IDLE_MODULES:
                    continue
                key = package_of(module)
                self.samples[key] = self.samples.get(key, 0.0) + weight
            del frames

    def close(self) -> None:
        self._stop.set()
        self._sampler.join(timeout=5.0)

    # ---------------------------------------------------------- results
    def _ref_s(self, span: Span, busy: bool = False) -> float:
        seconds = span.busy if busy else span.end - span.start
        return seconds * self.unit_factors.get(span.unit, 0.0)

    def _total(self, name: str) -> float:
        return sum(self._ref_s(s) for s in self.spans if s.name == name)

    def _nearest(self, span: Span, names: Tuple[str, ...]) -> Optional[Span]:
        parent = span.parent
        while parent is not None:
            candidate = self.spans[parent]
            if candidate.name in names:
                return candidate
            parent = candidate.parent
        return None

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures of the traced units, in ref-seconds per run."""
        runs = max(1, sum(self.unit_runs.values()))
        executes = [
            s for s in self.spans
            if s.name == "campaign.execute" and self._nearest(s, ("campaign.execute",)) is None
        ]
        execute_s = sum(self._ref_s(s) for s in executes)
        inside = 0.0
        for span in self.spans:
            if span.name in _EXECUTE_PARTS:
                owner = self._nearest(span, _EXECUTE_PARTS + ("campaign.execute",))
                if owner is not None and owner.name == "campaign.execute":
                    inside += self._ref_s(span)
        backend_s = self._total("service.backend_run")
        backend_exec = sum(
            self._ref_s(s) for s in executes
            if self._nearest(s, ("service.backend_run",)) is not None
        )
        lanes = [count for count, _ in self.batch_groups]
        total_samples = sum(self.samples.values())
        shares = {
            f"{package}.self_share": self.samples.get(package, 0) / max(1, total_samples)
            for package in PACKAGES
        }
        replay = [s for s in self.spans if s.name == "service.replay"]
        lookups = self.cache_hits + self.cache_misses
        return {
            "sim.events_per_run": self.events / runs,
            "sim.run_until_s_per_run": self._total("sim.run_until") / runs,
            "batch.prepare_s_per_run": self._total("batch.prepare") / runs,
            "batch.kernel_s_per_run": self._total("batch.kernel") / runs,
            "batch.lanes_per_group": sum(lanes) / len(lanes) if lanes else 0.0,
            "batch.fallback_runs": float(
                sum(count for count, reason in self.batch_groups if reason is not None)
            ),
            "scenario.build_s_per_run": self._total("scenario.build") / runs,
            "scenario.cache_hit_ratio": self.cache_hits / lookups if lookups else 0.0,
            "metrics.finalize_s_per_run": self._total("metrics.finalize") / runs,
            "campaign.execute_s_per_run": execute_s / runs,
            "campaign.overhead_s_per_run": (execute_s - inside) / runs,
            "campaign.failed_runs": float(self.failed_runs),
            "service.journal_append_s_per_run": self._total("service.journal_append") / runs,
            "service.replay_s_per_run": (
                sum(self._ref_s(s, busy=True) for s in replay) / max(1, self.replayed)
            ),
            "service.journal_bytes_per_run": self.journal_bytes / runs,
            "service.backend_overhead_s_per_run": (backend_s - backend_exec) / runs,
            **shares,
        }

    def package_table(self) -> List[Tuple[str, float, float]]:
        """``(package, sampled seconds, share)`` per package sampled, largest first."""
        total = max(1, sum(self.samples.values()))
        rows = sorted(self.samples.items(), key=lambda item: -item[1])
        return [(name, count, count / total) for name, count in rows]

    def write_spans(self, path: str) -> None:
        """Write the spans of the first traced units as gzip JSON lines.

        The metrics use every span; the file keeps :data:`SPAN_FILE_UNITS`
        units, because a short-sweep run records ~10^5 spans.
        """
        kept = set(sorted(self.unit_runs)[:SPAN_FILE_UNITS])
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                if span.unit in kept:
                    handle.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")


def _collector_classes() -> List[type]:
    found: List[type] = []
    pending = [MetricCollector]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found
