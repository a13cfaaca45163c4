"""Construction-cache benchmark: build-once/run-many vs. rebuild-per-run.

Short runs over non-trivial topologies are *construction-dominated*: the
17-node ``iotlab-star`` with the ``fading`` propagation model spends about
half of each run deriving links (O(n²) path-loss + per-pair shadowing
draws) — work that is identical for every seed once the shadowing seed is
pinned.  The cached bundle is the frozen topology plus the propagation
model that settled it; each run still wires its own channel (PER rows,
and under SINR the received powers and sensed links) from the bundle.
Two measurements track how much of the construction the
configuration-keyed artifact cache recovers:

* ``construction_overhead`` — the in-process fraction of one short run's
  wall-clock spent building artifacts (the cache's upper bound);
* ``sweep_cached_speedup`` — the same batched short-run sweep at
  ``--jobs 4`` with the cache off (PR 4 behaviour: every run rebuilds)
  vs. on (workers reuse the shared bundle), records asserted identical.

Run under pytest-benchmark (``pytest benchmarks/bench_build_cache.py``) or
directly (``python benchmarks/bench_build_cache.py --quick``).
"""

from __future__ import annotations

import sys
import time

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import Sweep
from repro.experiments.testbed import run_star
from repro.scenario import ARTIFACT_CACHE, ScenarioBuilder, ScenarioConfig

JOBS = 4

#: Full workload: 160 runs, also split as 8 batches of 20.
BENCH_RUNS = 160
BENCH_BATCHES = 8

#: Reduced workload for the CI smoke run.
SMOKE_RUNS = 48
SMOKE_BATCHES = 4

#: The pinned shadowing seed: every run of the sweep then shares one
#: construction artifact bundle (the cache's best case, and the common
#: shape of a multi-seed repetition study over a fixed deployment).
SHADOWING_SEED = 7

#: Construction-heavy short-run scenario shared by both measurements.
SCENARIO_FIXED = {
    "packets_per_node": 2,
    "warmup": 0.3,
    "delta": 50.0,
    "propagation_params": {"seed": SHADOWING_SEED},
}


def cached_sweep(base_seed: int, runs: int) -> Sweep:
    """A short-duration star+fading sweep of ``runs`` seeds (~5 ms/run)."""
    return Sweep(
        experiment="testbed-star",
        macs=("unslotted-csma",),
        propagations=("fading",),
        fixed=dict(SCENARIO_FIXED),
        seeds=list(range(base_seed, base_seed + runs)),
    )


def measure_construction_overhead(rounds: int = 30) -> dict:
    """In-process split of one short run: artifact build vs. total wall.

    Measured with the cache disabled so every round pays full
    construction; the reported overhead is construction's share of the
    run, i.e. the theoretical maximum the cache can recover.
    """
    config = ScenarioConfig(
        topology="iotlab-star",
        mac="unslotted-csma",
        propagation="fading",
        propagation_params={"seed": SHADOWING_SEED},
        link_error_rate=0.02,
        seed=0,
    )
    run_kwargs = dict(
        mac="unslotted-csma",
        delta=SCENARIO_FIXED["delta"],
        packets_per_node=SCENARIO_FIXED["packets_per_node"],
        warmup=SCENARIO_FIXED["warmup"],
        propagation="fading",
        propagation_params={"seed": SHADOWING_SEED},
    )
    with ARTIFACT_CACHE.override(enabled=False):
        run_star(seed=0, **run_kwargs)  # warm imports/registries
        start = time.perf_counter()
        for seed in range(rounds):
            ScenarioBuilder(config).build_artifacts(freeze=False)
        build_s = (time.perf_counter() - start) / rounds
        start = time.perf_counter()
        for seed in range(rounds):
            run_star(seed=seed, **run_kwargs)
        run_s = (time.perf_counter() - start) / rounds
    return {
        "build_ms": build_s * 1000,
        "run_ms": run_s * 1000,
        "overhead_pct": 100.0 * build_s / run_s if run_s > 0 else 0.0,
    }


def measure_cached_sweep(batches: int, per_batch: int) -> dict:
    """The batched short-run sweep at ``--jobs 4``, cache off vs. on.

    Batched (several sequential ``run`` calls through one runner) is the
    adaptive-campaign shape; with the cache on, each warm worker builds
    the shared bundle once and every later run only pays per-run assembly.
    Record equality between the regimes is asserted.
    """
    # One chunk per worker and batch for both regimes: small batches would
    # otherwise dispatch with chunksize=1 and the per-task IPC round trips
    # would drown the construction share being measured.
    chunksize = max(1, per_batch // JOBS)
    with CampaignRunner(jobs=JOBS, build_cache=False, chunksize=chunksize) as runner:
        start = time.perf_counter()
        off_records = []
        for index in range(batches):
            off_records.extend(runner.run(cached_sweep(index * per_batch, per_batch)).records)
        off_s = time.perf_counter() - start

    with CampaignRunner(jobs=JOBS, build_cache=True, chunksize=chunksize) as runner:
        start = time.perf_counter()
        on_records = []
        for index in range(batches):
            on_records.extend(runner.run(cached_sweep(index * per_batch, per_batch)).records)
        on_s = time.perf_counter() - start

    assert on_records == off_records, "build cache changed the records"
    return {
        "runs": batches * per_batch,
        "batches": batches,
        "off_s": off_s,
        "on_s": on_s,
        "speedup": off_s / on_s if on_s > 0 else float("inf"),
    }


def test_bench_build_cache(benchmark):
    """The cache must beat per-run construction on the batched shape."""

    def run():
        return measure_cached_sweep(SMOKE_BATCHES, SMOKE_RUNS // SMOKE_BATCHES)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "runs": result["runs"],
            "off_s": round(result["off_s"], 3),
            "on_s": round(result["on_s"], 3),
            "speedup": round(result["speedup"], 2),
        }
    )
    assert result["speedup"] > 1.0


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    runs = SMOKE_RUNS if quick else BENCH_RUNS
    batches = SMOKE_BATCHES if quick else BENCH_BATCHES

    overhead = measure_construction_overhead(rounds=10 if quick else 30)
    print(
        f"construction overhead (star+fading short run): "
        f"build {overhead['build_ms']:.2f} ms / run {overhead['run_ms']:.2f} ms "
        f"-> {overhead['overhead_pct']:.1f}%"
    )
    result = measure_cached_sweep(batches, runs // batches)
    print(
        f"batched cached sweep ({batches} x {runs // batches} runs, jobs={JOBS}): "
        f"cache off {result['off_s']:.3f} s, on {result['on_s']:.3f} s "
        f"-> {result['speedup']:.2f}x"
    )
    if result["speedup"] <= 1.0:
        print("FAIL: build cache is not faster than per-run construction", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
