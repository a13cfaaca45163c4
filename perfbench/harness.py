"""Measurement core: CPU pinning, reference normalisation and the unit loop.

Throughput is reported in *reference-seconds*.  After every timed unit of
campaign work the reference kernel (:mod:`refkernel`) runs on the same
pinned vCPU, and the unit's wall time is rescaled by how fast the kernel
ran right then.  On a shared VM the host's speed per vCPU drifts by tens
of percent within seconds; both timings see the same drift, so their
ratio repeats where raw wall-clock rates do not.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for journals and set-up probes, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Fresh-interpreter set-ups measured per run; set-up time is their median.
SETUP_PROBES = 3


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def bootstrap() -> None:
    """Make ``repro`` importable from the checkout's ``src`` directory."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def pin_cpu() -> Optional[int]:
    """Pin this process (and the children it starts) to one vCPU."""
    try:
        cpus = os.sched_getaffinity(0)
        cpu = max(cpus)
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def time_ref(repeats: int, vector: bool = False) -> float:
    """Wall seconds the reference kernel takes for ``repeats`` repeats."""
    from refkernel import reference_kernel

    start = time.perf_counter()
    reference_kernel(repeats, vector)
    return time.perf_counter() - start


def ref_seconds(wall: float, ref_wall: float, repeats: int) -> float:
    """``wall`` host seconds expressed in reference-seconds."""
    from refkernel import REF_S_PER_REPEAT

    return wall * repeats * REF_S_PER_REPEAT / ref_wall


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation, or 0.0 where it is undefined (JSON has no NaN)."""
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError:
        return 0.0


@dataclass
class Sample:
    """One timed unit and the reference timed right after it."""

    unit: int
    wall: float
    ref_wall: float
    executed: int
    failed: int
    traced: bool = False

    def ref_s(self, repeats: int) -> float:
        return ref_seconds(self.wall, self.ref_wall, repeats)


@dataclass
class Measurement:
    workload: str
    ref_repeats: int
    ref_vector: bool = False
    samples: List[Sample] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def chosen(self, traced: bool) -> List[Sample]:
        return [s for s in self.samples if s.traced == traced]

    def runs_per_ref_s(self, traced: bool = False) -> float:
        samples = self.chosen(traced)
        done = sum(max(0, s.executed - s.failed) for s in samples)
        spent = sum(s.ref_s(self.ref_repeats) for s in samples)
        return done / spent if spent > 0 else 0.0

    def end_to_end(self) -> Dict[str, Dict[str, Any]]:
        return {
            "runs_per_ref_s": {"value": self.runs_per_ref_s(), "unit": "1/s"},
            "setup_s": {"value": statistics.median(self.setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
            "completed_run_share": {
                "value": (self.attempted - self.failed) / max(1, self.attempted),
                "unit": "ratio",
            },
        }

    def diagnostics(self) -> Dict[str, float]:
        """Raw-clock and reference figures of the untraced units (not gated)."""
        samples = self.chosen(False)
        wall = sum(s.wall for s in samples)
        ref = sum(s.ref_wall for s in samples)
        return {
            "host.runs_per_s": sum(s.executed for s in samples) / wall if wall else 0.0,
            "ref.rate": (
                statistics.median(self.ref_repeats / s.ref_wall for s in samples)
                if samples
                else 0.0
            ),
            "ref.share": ref / (ref + wall) if wall else 0.0,
            "ref.unit_corr": correlation([s.wall for s in samples], [s.ref_wall for s in samples]),
        }


def probe_setups(workload: str, seed: int, count: int = SETUP_PROBES) -> List[float]:
    """Median-ready set-up times of ``count`` fresh interpreters, in ref-s.

    Each child imports the program, builds the workload's runner or
    backend and runs one warm-up unit, then reports "ready" and times the
    reference kernel; the parent's clock runs from spawn to "ready".
    """
    import json

    setups: List[float] = []
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)]
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as child:
            assert child.stdout is not None
            ready = None
            report: Dict[str, Any] = {}
            for line in child.stdout:
                if line.startswith("ready") and ready is None:
                    ready = time.perf_counter()
                elif line.startswith("{"):
                    report = json.loads(line)
            code = child.wait(timeout=120)
        if code != 0 or ready is None or "ref_wall" not in report:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        setups.append(ref_seconds(ready - start, report["ref_wall"], report["repeats"]))
    return setups


def run_units(
    workload: Any,
    measurement: Measurement,
    units: Any,
    seconds: float,
    pinned: Dict[str, str],
    tracer: Optional[Any] = None,
) -> None:
    """Run whole passes over the seed pool until ``seconds`` have passed.

    Stopping only at the end of a pass makes every run execute the same
    multiset of simulations, whatever the workload seed: per-seed costs
    differ by up to 2x on dsme-rings, and a partial pass would add that
    to the run-to-run spread.  With a ``tracer``, every other unit is
    traced; untraced units alone feed the end-to-end figures.
    """
    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        unit = next(units)
        traced = tracer is not None and not traced
        run_unit(workload, measurement, unit, pinned, tracer if traced else None)
        if unit.pass_end and time.perf_counter() >= deadline:
            return


def run_unit(
    workload: Any,
    measurement: Measurement,
    unit: Any,
    pinned: Dict[str, str],
    tracer: Optional[Any] = None,
) -> Sample:
    """Time one unit, then the reference kernel; check the unit's records."""
    from workloads import check_unit

    workload.before(unit)
    gc.collect()
    records: List[Any] = []
    executed = 0
    error: Optional[BaseException] = None
    if tracer is not None:
        tracer.begin(unit.index)
    start = time.perf_counter()
    try:
        result = workload.run(unit)
    except Exception as exc:  # a failing unit is counted and named, not fatal
        error = exc
    else:
        records, executed = result.records, result.executed
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.end()
    ref_wall = time_ref(measurement.ref_repeats, measurement.ref_vector)
    if error is not None:
        problems = [f"unit {unit.index} (seeds {list(unit.seeds)}) raised {error!r}"]
        checked = failed = len(unit.seeds)
    else:
        failed, problems = check_unit(workload, unit, records, pinned)
        checked = max(len(records), len(unit.seeds))
    for problem in problems:
        print(f"{measurement.workload}: {problem}", file=sys.stderr)
    measurement.attempted += checked
    measurement.failed += failed
    sample = Sample(unit.index, wall, ref_wall, executed, failed, tracer is not None)
    measurement.samples.append(sample)
    if tracer is not None:
        tracer.note_unit(sample)
    return sample
