"""Shard dispatch overhead: remote agents vs. bare shard workers.

Every shard runs on a campaign agent (``--hosts``): the agent hands a
:func:`~repro.service.manifest.shard_job_document` to a
``python -m repro.service.shard_worker`` subprocess, so the reference is
those same workers started directly on the same job documents — no
agent, no transport, no merge.  What remote dispatch costs on top is the
agent round-trip, journal byte streaming over TCP, heartbeats and the
digest-verified stream merge.  On a loopback network that must stay
small.

Two checks on the standard orchestration-dominated short sweep:

* **identity** — the reference workers' journals and the two-agent
  remote merge hold identical records (per-record dict equality over
  every index);
* **overhead** — remote wall-clock at most ``OVERHEAD_CEILING`` x the
  reference (paired rounds, median ratio; the quick CI workload gets a
  looser ceiling because fixed costs — agent connect, stream header —
  weigh more on a 5x shorter sweep).

Every round starts fresh agents with fresh workdirs, and checks that the
agents' shard journals hold every run: agent job ids are deterministic,
so a reused agent would re-attach to the previous round's finished jobs
instead of running them.

Run directly (``PYTHONPATH=src python benchmarks/bench_remote_dispatch.py
--quick``).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import repro
from bench_sweep_orchestration import short_sweep
from repro.service.agent import spawn_agent
from repro.service.journal import CheckpointJournal
from repro.service.manifest import affinity_order, shard_job_document, split_shards
from repro.service.remote import RemoteBackend

#: Two agents x two shard slots each.
AGENTS = 2
CAP = 2
SHARDS = AGENTS * CAP

#: Full workload: the standard 500-run short sweep.
BENCH_RUNS = 500
#: Reduced workload for the CI smoke run.
SMOKE_RUNS = 100

#: Agent-based dispatch may cost at most this factor of bare shard
#: workers.  Generous on purpose: the gate is for pathological
#: regressions (per-chunk reconnects, heartbeat storms, lost streaming
#: overlap), not for loopback jitter.
OVERHEAD_CEILING = 2.0
SMOKE_OVERHEAD_CEILING = 3.0

#: Paired measurement rounds; the median ratio is reported.
ROUNDS = 3

#: Runner options of every shard worker (the backends' defaults).
OPTIONS = {"jobs": 1, "chunksize": "auto", "build_cache": True, "batch_seeds": 1}


def _journal_records(path: str) -> dict:
    journal = CheckpointJournal.open(path)
    try:
        return {i: record.to_dict() for i, record in journal.iter_completed()}
    finally:
        journal.close()


def _executed_runs(workdir: str) -> int:
    """Runs journalled by the shard workers of the agent owning ``workdir``."""
    return sum(
        len(_journal_records(path))
        for path in glob.glob(os.path.join(workdir, "*", "journal.jsonl"))
    )


def _run_reference(sweep, tmp: str) -> tuple:
    """(wall_s, records): bare shard workers, one per affinity slice."""
    chunks = split_shards(affinity_order(sweep, range(sweep.size)), SHARDS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    sweep_data = sweep.to_dict()
    journals = []
    start = time.perf_counter()
    procs = []
    for shard, chunk in enumerate(chunks):
        journal = os.path.join(tmp, f"ref{shard}.jsonl")
        job_path = os.path.join(tmp, f"ref{shard}.job.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(
                shard_job_document(
                    sweep_data, chunk, journal, shard, len(chunks), OPTIONS
                ),
                handle,
            )
        procs.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro.service.shard_worker", job_path],
                env=env,
            )
        )
        journals.append(journal)
    for proc in procs:
        if proc.wait() != 0:
            raise RuntimeError(f"reference shard worker exited {proc.returncode}")
    wall = time.perf_counter() - start
    merged = {}
    for journal in journals:
        merged.update(_journal_records(journal))
    return wall, merged


def _run_remote(sweep, tmp: str) -> tuple:
    """(wall_s, records): two freshly spawned agents x ``CAP`` slots;
    checks the agents ran every shard."""
    agents = []
    try:
        for i in range(AGENTS):
            workdir = os.path.join(tmp, f"agent{i}")
            proc, address = spawn_agent(workdir=workdir, name=f"bench{i}")
            agents.append((proc, workdir, f"{address}*{CAP}"))
        backend = RemoteBackend([host for _, _, host in agents])
        journal = CheckpointJournal.create(os.path.join(tmp, "remote.jsonl"), sweep)
        try:
            start = time.perf_counter()
            backend.run(sweep, list(range(sweep.size)), journal)
            wall = time.perf_counter() - start
            merged = {i: record.to_dict() for i, record in journal.iter_completed()}
            executed = sum(_executed_runs(workdir) for _, workdir, _ in agents)
        finally:
            journal.close()
            backend.close()
    finally:
        for proc, _, _ in agents:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if len(merged) != sweep.size or executed != sweep.size:
        raise RuntimeError(
            f"remote: merged {len(merged)} and executed {executed} "
            f"of {sweep.size} runs"
        )
    return wall, merged


def measure_remote_overhead(runs: int, rounds: int = ROUNDS) -> dict:
    """Median paired overhead of remote dispatch."""
    # Seeds far away from the other orchestration benchmarks so warm
    # caches never cross-pollinate the comparison.
    sweep = short_sweep(40_000, runs)
    timings = []
    for _ in range(rounds):
        tmp = tempfile.mkdtemp(prefix="bench-remote-")
        try:
            reference_s, reference = _run_reference(sweep, tmp)
            remote_s, remote = _run_remote(sweep, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if reference != remote:
            raise RuntimeError("reference and remote records differ")
        timings.append((reference_s, remote_s))
    ratios = sorted(remote_s / reference_s for reference_s, remote_s in timings)
    return {
        "runs": runs,
        "timings": timings,
        "remote_overhead": ratios[len(ratios) // 2],
    }


def check_ceiling(result: dict, quick: bool) -> None:
    """Raise if remote dispatch costs more than the ceiling."""
    ceiling = SMOKE_OVERHEAD_CEILING if quick else OVERHEAD_CEILING
    overhead = result["remote_overhead"]
    if overhead > ceiling:
        raise RuntimeError(
            f"remote dispatch overhead {overhead:.3f}x exceeds the "
            f"{ceiling}x ceiling over {result['runs']} runs "
            f"(rounds: {result['timings']})"
        )


def main(argv: list) -> int:
    quick = "--quick" in argv
    runs = SMOKE_RUNS if quick else BENCH_RUNS
    result = measure_remote_overhead(runs)
    print(
        f"shard dispatch over {result['runs']} runs, {SHARDS} shards "
        f"({AGENTS} agents x {CAP} slots)"
    )
    for number, (reference_s, remote_s) in enumerate(result["timings"], start=1):
        print(
            f"  round {number}: bare workers {reference_s:.3f}s, "
            f"remote {remote_s:.3f}s"
        )
    print(
        f"median overhead: remote {result['remote_overhead']:.3f}x "
        "(records identical)"
    )
    check_ceiling(result, quick)
    print(
        f"OK: within the "
        f"{SMOKE_OVERHEAD_CEILING if quick else OVERHEAD_CEILING}x ceiling"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
