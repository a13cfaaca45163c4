"""Checkpoint journaling overhead: journal-on vs journal-off batched sweep.

The campaign service journals every completed run (one flushed JSONL line
per record) so that a killed campaign resumes instead of recomputing.
That durability must be close to free, or nobody runs with ``--checkpoint``
on: the acceptance gate is **≤5 % wall-clock overhead** on the standard
500-run orchestration-dominated short sweep — the worst case for the
journal, since the per-run simulation work is tiny (~0.5 ms) and the
per-record append is a fixed cost.

Both sides run the identical sweep through the identical warm pool at the
same worker count; the checkpointed side additionally pays the journal
header, one append+flush per record and the in-order release of each
record into the (null) output path — a cold run replays nothing from the
journal.  Rounds are paired (plain then journalled, back to back) and the
reported overhead is the median paired ratio, which cancels machine-load
drift.

Run directly (``python benchmarks/bench_checkpoint_overhead.py --quick``)
or through ``benchmarks/run_all.py``.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from repro.campaign.runner import CampaignRunner

from bench_sweep_orchestration import short_sweep
from repro.service.backends import PoolBackend
from repro.service.checkpoint import run_checkpointed

JOBS = 4

#: Full workload: the standard 500-run batched short sweep.
BENCH_RUNS = 500
#: Reduced workload for the CI smoke run.
SMOKE_RUNS = 100

#: Acceptance ceiling: journal-on may cost at most this factor of the
#: journal-off wall-clock.  The smoke workload is 5x shorter, so its
#: fixed costs (journal header fsync, replay-file open) weigh 5x more
#: and timing noise is larger — it gets a looser ceiling.
OVERHEAD_CEILING = 1.05
SMOKE_OVERHEAD_CEILING = 1.15

#: Paired measurement rounds; the median ratio is reported.  A smoke pair
#: takes only 0.05-0.15 s, so the smoke run takes more of them.
ROUNDS = 3
QUICK_ROUNDS = 7


def measure_checkpoint_overhead(runs: int, rounds: int = ROUNDS) -> dict:
    """Median paired wall-clock of the sweep with and without a journal."""
    # Seeds far away from the other orchestration benchmarks so warm-pool
    # artifact caches never cross-pollinate the comparison.
    sweep = short_sweep(20_000, runs)
    pairs = []
    for _ in range(rounds):
        with CampaignRunner(jobs=JOBS) as runner:
            start = time.perf_counter()
            for _record in runner.iter_records(sweep):
                pass
            plain_s = time.perf_counter() - start

        backend = PoolBackend(jobs=JOBS)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                journal_path = os.path.join(tmp, "bench.journal.jsonl")
                start = time.perf_counter()
                outcome = run_checkpointed(sweep, journal_path, backend=backend)
                journal_s = time.perf_counter() - start
        finally:
            backend.close()
        if outcome.executed != runs:
            raise RuntimeError(
                f"checkpointed sweep executed {outcome.executed} of {runs} runs"
            )
        pairs.append((plain_s, journal_s))

    pairs.sort(key=lambda pair: pair[1] / pair[0])
    plain_s, journal_s = pairs[len(pairs) // 2]
    return {
        "runs": runs,
        "plain_s": plain_s,
        "journal_s": journal_s,
        "overhead": journal_s / plain_s,
    }


def check_ceiling(result: dict, quick: bool) -> None:
    """Raise if journaling costs more than the acceptance ceiling."""
    ceiling = SMOKE_OVERHEAD_CEILING if quick else OVERHEAD_CEILING
    if result["overhead"] > ceiling:
        raise RuntimeError(
            f"checkpoint journaling overhead {result['overhead']:.3f}x exceeds "
            f"the {ceiling}x ceiling ({result['plain_s']:.3f}s plain vs "
            f"{result['journal_s']:.3f}s journalled over {result['runs']} runs)"
        )


def main(argv: list) -> int:
    quick = "--quick" in argv
    runs = SMOKE_RUNS if quick else BENCH_RUNS
    result = measure_checkpoint_overhead(runs, QUICK_ROUNDS if quick else ROUNDS)
    print(
        f"checkpoint overhead over {result['runs']} runs (jobs={JOBS}): "
        f"plain {result['plain_s']:.3f}s, journalled {result['journal_s']:.3f}s "
        f"-> {result['overhead']:.3f}x"
    )
    check_ceiling(result, quick)
    print(
        f"OK: within the "
        f"{SMOKE_OVERHEAD_CEILING if quick else OVERHEAD_CEILING}x ceiling"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
