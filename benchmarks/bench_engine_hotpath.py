"""Event-engine hot-path benchmark: events/s on a 43-node scalability run.

Tracks the engine's inner-loop performance in the perf trajectory:

* the PR 2 pass (tuple-based heap without ``Event.__lt__`` calls, inlined
  ``run_until`` drain loop, no per-delivery neighbour-set copies, cached
  frame air time, index-based Q-table rows) took the original machine from
  ~146k to ~210k events/s on the deep-heap micro;
* the next pass added a fire-and-forget fast path (no event handle,
  batched drain-loop counters) plus the channel's static link table;
* heap entries then became bare ``(time, seq, callback, arg)`` tuples;
* finally the cancellable path went away: every event is one such tuple,
  scheduled through :meth:`~repro.sim.engine.Simulator.schedule`, and
  stoppable timers go stale on an epoch instead of being cancelled.

Two micro shapes are measured: ``deep-heap`` (schedule N events, then
drain — heap depth dominates) and ``steady-state`` (self-rescheduling
tickers at constant queue depth — the shape of a real simulation).

Run under pytest-benchmark (``pytest benchmarks/bench_engine_hotpath.py``)
or directly (``python benchmarks/bench_engine_hotpath.py``) for the
CI smoke variant on a reduced workload.
"""

from __future__ import annotations

import sys
import time

from repro.experiments.scalability import run_scalability
from repro.sim.engine import Simulator

#: The paper's rings=3 topology (43 nodes) — "50-node scale".
BENCH_RINGS = 3
BENCH_DURATION = 60.0
BENCH_WARMUP = 30.0

#: Reduced workload for the CI smoke run (long enough for GTS handshakes
#: to produce secondary traffic).
SMOKE_RINGS = 2
SMOKE_DURATION = 40.0
SMOKE_WARMUP = 20.0

#: Tickers of the steady-state micro (constant queue depth).
STEADY_TICKERS = 50


def _timed_scalability(rings: int, duration: float, warmup: float):
    """One QMA scalability run; returns (result, wall seconds)."""
    start = time.perf_counter()
    result = run_scalability(
        mac="qma", rings=rings, duration=duration, warmup=warmup, seed=1
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def engine_micro_deep(num_events: int = 200_000) -> float:
    """Deep-heap micro: schedule ``num_events`` no-ops, then drain.

    Heap depth dominates here; kept for continuity with the PR 2 numbers.
    Returns events/s.
    """
    sim = Simulator(seed=0)

    def noop() -> None:
        pass

    start = time.perf_counter()
    for _ in range(num_events):
        sim.schedule(0.001, noop)
    sim.run()
    return num_events / (time.perf_counter() - start)


def engine_micro_steady(num_events: int = 300_000) -> float:
    """Steady-state micro: self-rescheduling tickers at constant depth.

    This is the shape of a real simulation (slot ticks, timers): the queue
    stays ~:data:`STEADY_TICKERS` deep while ``num_events`` events flow
    through.  Returns events/s.
    """
    sim = Simulator(seed=0)
    remaining = [num_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    for _ in range(STEADY_TICKERS):
        sim.schedule(0.0, tick)

    start = time.perf_counter()
    sim.run_until(float(num_events))
    return num_events / (time.perf_counter() - start)


def test_bench_engine_hotpath(benchmark):
    """43-node QMA scalability run: wall-clock and executed events/s."""

    def run():
        return _timed_scalability(BENCH_RINGS, BENCH_DURATION, BENCH_WARMUP)

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    deep = engine_micro_deep()
    steady = engine_micro_steady()
    benchmark.extra_info.update(
        {
            "nodes": result.num_nodes,
            "simulated_s": result.duration,
            "wall_s": round(elapsed, 3),
            "engine_micro_events_per_s": round(deep),
            "engine_steady_events_per_s": round(steady),
            "secondary_pdr": round(result.secondary_pdr, 4),
        }
    )
    assert result.num_nodes == 43
    assert 0.0 <= result.secondary_pdr <= 1.0


def main(argv=None) -> int:
    """CI smoke entry point: run a reduced workload once and print the numbers."""
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    rings = SMOKE_RINGS if quick else BENCH_RINGS
    duration = SMOKE_DURATION if quick else BENCH_DURATION
    warmup = SMOKE_WARMUP if quick else BENCH_WARMUP

    result, elapsed = _timed_scalability(rings, duration, warmup)
    deep = engine_micro_deep(50_000 if quick else 200_000)
    steady = engine_micro_steady(100_000 if quick else 300_000)
    print(
        f"scalability rings={rings} nodes={result.num_nodes}: "
        f"{result.duration:.0f} simulated s in {elapsed:.2f} wall s "
        f"(secondary_pdr={result.secondary_pdr:.3f})"
    )
    print(f"engine micro (deep heap): {deep / 1000:.1f}k events/s")
    print(f"engine micro (steady state): {steady / 1000:.1f}k events/s")
    if not 0.0 <= result.secondary_pdr <= 1.0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
