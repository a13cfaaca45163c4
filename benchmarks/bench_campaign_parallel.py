"""Campaign layer: serial vs. 4-worker wall-clock for a reduced fig7 sweep.

Tracks the parallel speedup of :class:`repro.campaign.runner.CampaignRunner`
in the perf trajectory, and asserts that the parallel records are equal to
the serial ones (the determinism guarantee the campaign layer is built on).
The >= 2x speedup assertion only applies when the machine actually has the
four cores the pool asks for.
"""

from __future__ import annotations

import os
import time

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.experiments.figures import FIGURES

#: Reduced fig7 sweep: 2 MACs x 2 rates x 3 seeds = 12 scenarios.
_SWEEP = Sweep(
    experiment="hidden-node",
    macs=("qma", "unslotted-csma"),
    grid={"delta": [10.0, 25.0]},
    fixed={"packets_per_node": 80, "warmup": FIGURES["fig7"].reduced["warmup"]},
    seeds=(0, 1, 2),
)

_WORKERS = 4


def _usable_cpus() -> int:
    """CPUs this process may actually use (affinity-aware, for cgroup CI)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _timed_runs():
    start = time.perf_counter()
    serial = CampaignRunner(jobs=1).run(_SWEEP)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = CampaignRunner(jobs=_WORKERS).run(_SWEEP)
    parallel_s = time.perf_counter() - start
    return serial, parallel, serial_s, parallel_s


def test_bench_campaign_parallel_speedup(benchmark):
    """4 workers must reproduce the serial records exactly — and faster, given cores."""
    serial, parallel, serial_s, parallel_s = benchmark.pedantic(
        _timed_runs, rounds=1, iterations=1
    )
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    benchmark.extra_info.update(
        {
            "scenarios": _SWEEP.size,
            "workers": _WORKERS,
            "cpu_count": os.cpu_count(),
            "usable_cpus": _usable_cpus(),
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(speedup, 2),
        }
    )
    assert parallel.records == serial.records
    assert all(0.0 <= record.metrics["pdr"] <= 1.0 for record in serial)
    if _usable_cpus() >= _WORKERS:
        assert speedup >= 2.0
