"""CI chaos smoke test: a supervised sweep survives injected faults.

Runs a 500-run checkpointed campaign through the public CLI with the
deterministic fault harness armed — two worker kills, one 60-second run
hang, and one torn journal line — and asserts the three supervision
guarantees end to end:

1. the campaign never hangs (a hard wall-clock bound kills the smoke);
2. it exits ``complete`` (0) or ``partial`` (4), never an unhandled
   traceback (any other exit status fails the smoke);
3. the merged record set is byte-for-byte identical to a fault-free run
   of the same sweep (after ``retry-quarantined`` if it went partial).

A second phase repeats the sweep over **remote dispatch**: two localhost
campaign agents, one SIGKILLed mid-campaign and one injected mid-stream
disconnect.  The same three guarantees must hold — the lost agent's
slice is reassigned, the dropped stream resumes at its byte offset, and
the merged output is again bit-identical to the fault-free baseline.

Exit status 0 means all held.  Run from the repository root::

    PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.service.agent import spawn_agent  # noqa: E402

#: 1 MAC x 2 deltas x 250 seeds = 500 runs, ~2 ms each.
SWEEP_ARGS = [
    "hidden-node",
    "--macs", "unslotted-csma",
    "--grid", "delta=50,100",
    "--set", "packets_per_node=2",
    "--set", "warmup=0.2",
    "--set", "drain_time=0.1",
    "--set", "management_period=0.5",
    "--seeds", "250",
]
TOTAL_RUNS = 500

#: Two worker kills, one 60 s hang, one torn journal line — the worker
#: faults fire exactly once per campaign, the hang is bounded by the
#: run timeout's watchdog, the torn line by crash-tolerant replay.
FAULTS = "crash@seed=3;crash@seed=101;hang:60@seed=7;torn@after=120"

#: Per-run wall-clock budget: generous for a ~2 ms run, small enough to
#: keep each watchdog-recovered fault under ~10 s of smoke time.
RUN_TIMEOUT = "8.0"

#: Hard bound on any single CLI invocation — guarantee (1).
SMOKE_TIMEOUT_S = 420


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cli(*args: str, timeout: float = SMOKE_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=_env(),
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def fail(message: str, proc: subprocess.CompletedProcess = None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print("--- stdout ---\n" + proc.stdout[-4000:], file=sys.stderr)
        print("--- stderr ---\n" + proc.stderr[-4000:], file=sys.stderr)
    sys.exit(1)


def records_of(jsonl_path: str) -> list:
    """The record objects of a JSONL export (meta lines skipped)."""
    records = []
    with open(jsonl_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            data = json.loads(line)
            if "scenario" in data:
                records.append(data)
    return records


def main() -> None:
    tmp = tempfile.mkdtemp(prefix="qma-chaos-smoke-")
    base_journal = os.path.join(tmp, "base.jsonl")
    base_export = os.path.join(tmp, "base.records.jsonl")
    chaos_journal = os.path.join(tmp, "chaos.jsonl")
    chaos_export = os.path.join(tmp, "chaos.records.jsonl")

    # 1. Fault-free baseline.
    started = time.monotonic()
    proc = cli("sweep", *SWEEP_ARGS, "--jobs", "2",
               "--checkpoint", base_journal, "--jsonl", base_export)
    if proc.returncode != 0:
        fail("fault-free baseline sweep failed", proc)
    baseline = records_of(base_export)
    if len(baseline) != TOTAL_RUNS:
        fail(f"baseline exported {len(baseline)} records, expected {TOTAL_RUNS}", proc)
    print(f"baseline: {TOTAL_RUNS} runs in {time.monotonic() - started:.1f}s")

    # 2. The same sweep under injected chaos.
    started = time.monotonic()
    proc = cli("sweep", *SWEEP_ARGS, "--jobs", "2",
               "--checkpoint", chaos_journal,
               "--inject-faults", FAULTS, "--run-timeout", RUN_TIMEOUT)
    if proc.returncode not in (0, 4):
        fail(f"chaos sweep exited {proc.returncode}, expected 0 (complete) "
             "or 4 (partial)", proc)
    outcome = "complete" if proc.returncode == 0 else "partial"
    print(f"chaos sweep: {outcome} in {time.monotonic() - started:.1f}s")

    # 3. Partial campaigns must heal once the (one-shot) faults are spent.
    if proc.returncode == 4:
        proc = cli("retry-quarantined", chaos_journal)
        if proc.returncode != 0:
            fail("retry-quarantined did not complete the campaign", proc)
        print("retry-quarantined: campaign healed")

    # 4. Merged output must be bit-identical to the fault-free run.
    proc = cli("resume", chaos_journal, "--jsonl", chaos_export)
    if proc.returncode != 0:
        fail("replaying the chaos journal failed", proc)
    chaos = records_of(chaos_export)
    if chaos != baseline:
        for position, (expected, got) in enumerate(zip(baseline, chaos)):
            if expected != got:
                fail(f"record {position} differs after chaos recovery:\n"
                     f"  expected: {json.dumps(expected)[:300]}\n"
                     f"  got:      {json.dumps(got)[:300]}")
        fail(f"chaos run exported {len(chaos)} records, expected {len(baseline)}")
    print(f"merged output bit-identical across {len(chaos)} records")

    # 5. Remote dispatch: the same sweep across two localhost agents with
    #    one agent SIGKILLed mid-campaign and one mid-stream disconnect.
    remote_journal = os.path.join(tmp, "remote.jsonl")
    remote_export = os.path.join(tmp, "remote.records.jsonl")
    victim, victim_host = spawn_agent(os.path.join(tmp, "victim"), name="victim")
    survivor, survivor_host = spawn_agent(
        os.path.join(tmp, "survivor"), name="survivor"
    )
    try:
        started = time.monotonic()
        sweep_proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "sweep", *SWEEP_ARGS,
             "--checkpoint", remote_journal,
             "--hosts", f"{victim_host}*2", f"{survivor_host}*2",
             "--inject-faults", "drop-stream@after=150",
             "--run-timeout", RUN_TIMEOUT],
            env=_env(), cwd=REPO,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(1.5)
        victim.kill()  # SIGKILL one agent while its shards stream
        try:
            out, err = sweep_proc.communicate(timeout=SMOKE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sweep_proc.kill()
            fail("remote chaos sweep hung past the wall-clock bound")
        proc = subprocess.CompletedProcess(
            sweep_proc.args, sweep_proc.returncode, out, err
        )
        if proc.returncode not in (0, 4):
            fail(f"remote chaos sweep exited {proc.returncode}, expected 0 "
                 "(complete) or 4 (partial)", proc)
        outcome = "complete" if proc.returncode == 0 else "partial"
        print(f"remote chaos sweep: {outcome} in "
              f"{time.monotonic() - started:.1f}s (one agent SIGKILLed, "
              "one stream dropped)")

        if proc.returncode == 4:
            proc = cli("retry-quarantined", remote_journal)
            if proc.returncode != 0:
                fail("retry-quarantined did not heal the remote campaign", proc)
            print("retry-quarantined: remote campaign healed")

        proc = cli("resume", remote_journal, "--jsonl", remote_export)
        if proc.returncode != 0:
            fail("replaying the remote chaos journal failed", proc)
        remote = records_of(remote_export)
        if remote != baseline:
            for position, (expected, got) in enumerate(zip(baseline, remote)):
                if expected != got:
                    fail(f"record {position} differs after remote recovery:\n"
                         f"  expected: {json.dumps(expected)[:300]}\n"
                         f"  got:      {json.dumps(got)[:300]}")
            fail(f"remote run exported {len(remote)} records, "
                 f"expected {len(baseline)}")
        print(f"remote output bit-identical across {len(remote)} records")
    finally:
        for agent in (victim, survivor):
            if agent.poll() is None:
                agent.kill()
            agent.wait()

    print("chaos smoke passed")


if __name__ == "__main__":
    main()
