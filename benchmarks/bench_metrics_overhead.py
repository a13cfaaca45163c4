"""Metric-collector overhead benchmark: full-collector vs. no-collector runs.

The collectors of :mod:`repro.metrics` observe a run through typed hooks
(delivery hooks at the sink, counter reads at finalize), so instrumenting a
simulation must be nearly free: the budget enforced here is **≤ 5 %**
wall-clock overhead for the full default collector set of the hidden-node
experiment versus the same run with no collectors at all.

Because collectors are pure observers, the two runs execute the identical
event sequence — the benchmark also asserts that the instrumented run's
headline scalars match a minimally instrumented run bit for bit.

Run under pytest-benchmark (``pytest benchmarks/bench_metrics_overhead.py``)
or directly (``python benchmarks/bench_metrics_overhead.py --quick``) for
the CI smoke variant on a reduced workload.
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.experiments.hidden_node import run_hidden_node

#: Overhead budget: full collectors may cost at most 5 % over no collectors.
OVERHEAD_BUDGET = 0.05

#: Quick-mode gate: the smoke workload is ~3x shorter, so timer granularity
#: and 1-core-runner scheduling noise make single-digit percentages
#: unreliable — the quick gate only guards against gross regressions.
QUICK_OVERHEAD_BUDGET = 0.15

#: Benchmark workload (hidden-node, 3 nodes, saturating load).
BENCH_PACKETS = 4000
SMOKE_PACKETS = 1200

DELTA = 25.0
WARMUP = 10.0
#: Paired rounds; odd so the median is one round's ratio.
ROUNDS = 9


def _one_run(collectors, packets: int) -> float:
    """Wall time of one hidden-node run with the given collector set."""
    start = time.perf_counter()
    run_hidden_node(
        mac="qma",
        delta=DELTA,
        packets_per_node=packets,
        warmup=WARMUP,
        seed=1,
        collectors=collectors,
    )
    return time.perf_counter() - start


def measure_overhead(packets: int):
    """Return ``(bare_s, full_s, overhead_ratio)`` for the given workload.

    Each round runs the bare and the full variant back to back, and the
    variant that goes first alternates between rounds.  The overhead is the
    median over rounds of ``full / bare - 1``: drift in machine speed (other
    tenants, frequency scaling) moves both halves of a pair alike and
    cancels in its ratio, and the median discards a round in which one
    half alone was preempted.  ``bare_s`` and ``full_s`` are the per-variant
    medians, for reporting only.
    """
    bare_times, full_times, ratios = [], [], []
    for round_index in range(ROUNDS):
        if round_index % 2:
            full = _one_run(None, packets)  # None = the default set
            bare = _one_run((), packets)
        else:
            bare = _one_run((), packets)
            full = _one_run(None, packets)
        bare_times.append(bare)
        full_times.append(full)
        ratios.append(full / bare - 1.0)
    return (
        statistics.median(bare_times),
        statistics.median(full_times),
        statistics.median(ratios),
    )


def check_scalars_identical(packets: int) -> None:
    """Observer property: collector selection never changes the metrics."""
    full = run_hidden_node(
        mac="qma", delta=DELTA, packets_per_node=packets, warmup=WARMUP, seed=1
    )
    minimal = run_hidden_node(
        mac="qma", delta=DELTA, packets_per_node=packets, warmup=WARMUP, seed=1,
        collectors=("pdr",),
    )
    assert minimal.scalars["pdr"] == full.scalars["pdr"]
    assert minimal.duration == full.duration


def test_bench_metrics_overhead(benchmark):
    """Full default collectors stay within the 5 % overhead budget."""

    def run():
        return measure_overhead(BENCH_PACKETS)

    bare, full, overhead = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "bare_wall_s": round(bare, 3),
            "full_collectors_wall_s": round(full, 3),
            "overhead_pct": round(overhead * 100, 2),
        }
    )
    check_scalars_identical(packets=200)
    assert overhead <= OVERHEAD_BUDGET, (
        f"collector overhead {overhead:.1%} exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )


def main(argv=None) -> int:
    """CI smoke entry point: measure the overhead once and enforce the budget."""
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    packets = SMOKE_PACKETS if quick else BENCH_PACKETS
    budget = QUICK_OVERHEAD_BUDGET if quick else OVERHEAD_BUDGET

    check_scalars_identical(packets=200)
    bare, full, overhead = measure_overhead(packets)
    print(
        f"metrics overhead ({packets} packets/node): median bare {bare:.3f} s, "
        f"full collectors {full:.3f} s; median paired overhead {overhead:+.1%} "
        f"(budget {budget:.0%})"
    )
    if overhead > budget:
        print("FAIL: collector overhead exceeds the budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
