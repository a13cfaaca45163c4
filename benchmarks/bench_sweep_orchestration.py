"""Campaign orchestration benchmark: warm worker pool vs. PR 3 dispatch.

Measures the wall-clock of a 500-run short-duration hidden-node sweep at
``--jobs 4`` under two dispatch regimes:

* **legacy** — the PR 3 behaviour, replicated inline: a fresh
  ``multiprocessing.Pool`` per ``run()`` call, every scenario shipped as a
  full pickle, ``chunksize=1``;
* **warm** — the current :class:`~repro.campaign.runner.CampaignRunner`:
  one persistent template-initialised pool reused across calls, per-run
  delta pickles, adaptive chunk size.

Two shapes are timed: the whole sweep in a single call, and the same 500
runs as 25 batches of 20 through one runner — the shape of adaptive
campaigns (run a batch, look at the CI, run another), where the legacy
dispatch pays a pool fork per batch.

The runs are deliberately tiny (2 packets, 0.2 s warm-up) so that
orchestration, not simulation, dominates — exactly the regime the warm
pool targets.

Run under pytest-benchmark (``pytest benchmarks/bench_sweep_orchestration.py``)
or directly (``python benchmarks/bench_sweep_orchestration.py --quick``).
"""

from __future__ import annotations

import multiprocessing
import sys
import time

from repro.campaign.runner import CampaignRunner, execute_scenario
from repro.campaign.spec import Sweep

JOBS = 4

#: Full workload: 500 runs, also split as 25 batches of 20.
BENCH_RUNS = 500
BENCH_BATCHES = 25

#: Reduced workload for the CI smoke run.
SMOKE_RUNS = 100
SMOKE_BATCHES = 10


def short_sweep(base_seed: int, runs: int) -> Sweep:
    """A short-duration hidden-node sweep of ``runs`` seeds (~0.5 ms/run)."""
    return Sweep(
        experiment="hidden-node",
        macs=("unslotted-csma",),
        grid={"delta": [100.0]},
        fixed={
            "packets_per_node": 2,
            "warmup": 0.2,
            "drain_time": 0.1,
            "management_period": 0.5,
        },
        seeds=list(range(base_seed, base_seed + runs)),
    )


def _legacy_run(sweep: Sweep, jobs: int = JOBS) -> list:
    """PR 3 dispatch, replicated: fresh pool, full pickles, chunksize=1."""
    scenarios = sweep.scenarios()
    with multiprocessing.Pool(processes=min(jobs, len(scenarios))) as pool:
        return list(pool.imap(execute_scenario, scenarios, chunksize=1))


def measure_single(runs: int) -> dict:
    """One ``runs``-scenario sweep in a single call, legacy vs. warm."""
    sweep = short_sweep(0, runs)
    start = time.perf_counter()
    legacy_records = _legacy_run(sweep)
    legacy_s = time.perf_counter() - start

    with CampaignRunner(jobs=JOBS) as runner:
        start = time.perf_counter()
        warm_records = runner.run(sweep).records
        warm_s = time.perf_counter() - start

    assert warm_records == legacy_records, "warm pool changed the records"
    return {
        "runs": runs,
        "legacy_s": legacy_s,
        "warm_s": warm_s,
        "speedup": legacy_s / warm_s if warm_s > 0 else float("inf"),
    }


def measure_batched(batches: int, per_batch: int) -> dict:
    """The same total runs as ``batches`` sequential calls, legacy vs. warm."""
    start = time.perf_counter()
    for index in range(batches):
        _legacy_run(short_sweep(index * per_batch, per_batch))
    legacy_s = time.perf_counter() - start

    with CampaignRunner(jobs=JOBS) as runner:
        start = time.perf_counter()
        for index in range(batches):
            runner.run(short_sweep(index * per_batch, per_batch))
        warm_s = time.perf_counter() - start

    return {
        "runs": batches * per_batch,
        "batches": batches,
        "legacy_s": legacy_s,
        "warm_s": warm_s,
        "speedup": legacy_s / warm_s if warm_s > 0 else float("inf"),
    }


def test_bench_sweep_orchestration(benchmark):
    """Warm pool must beat the legacy dispatch on the batched shape."""

    def run():
        return measure_batched(SMOKE_BATCHES, SMOKE_RUNS // SMOKE_BATCHES)

    batched = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "runs": batched["runs"],
            "legacy_s": round(batched["legacy_s"], 3),
            "warm_s": round(batched["warm_s"], 3),
            "speedup": round(batched["speedup"], 2),
        }
    )
    assert batched["speedup"] > 1.0


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    runs = SMOKE_RUNS if quick else BENCH_RUNS
    batches = SMOKE_BATCHES if quick else BENCH_BATCHES

    single = measure_single(runs)
    batched = measure_batched(batches, runs // batches)
    print(
        f"single call ({runs} runs, jobs={JOBS}): "
        f"legacy {single['legacy_s']:.3f} s, warm {single['warm_s']:.3f} s "
        f"-> {single['speedup']:.2f}x"
    )
    print(
        f"batched ({batches} x {runs // batches} runs, jobs={JOBS}): "
        f"legacy {batched['legacy_s']:.3f} s, warm {batched['warm_s']:.3f} s "
        f"-> {batched['speedup']:.2f}x"
    )
    if batched["speedup"] <= 1.0:
        print("FAIL: warm pool is not faster than legacy dispatch", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
