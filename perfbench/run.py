"""Campaign benchmark: reference-normalised runs/s on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hidden-qma --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; the line before it holds the untraced
diagnostics.  ``--trace 1`` alternates untraced and traced units and
reports the per-layer metrics; it also writes the traced units' spans and
a per-package table to ``--out``.  ``--pin`` re-pins the record digests
(see README.md).  Exits non-zero, printing no result, when the checkout
holds no program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Any, Dict, List

import harness

#: Workload seed used when ``--seed`` is not given.
DEFAULT_SEED = 1


def metric_units() -> Dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="hidden-qma")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(harness.ROOT, ".perfbench_out"),
                        help="directory for the traced run's span file and table")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the record digests of every workload and exit")
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    from workloads import WORKLOADS, load_digests

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    pinned = load_digests()[args.workload]
    pool = sorted(int(key) for key in pinned)
    workload = WORKLOADS[args.workload](workdir)
    measurement = harness.Measurement(args.workload, workload.ref_repeats, workload.ref_vector)
    measurement.setups = harness.probe_setups(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(workload.ref_repeats)
    workload.prepare()
    try:
        units = workload.units(pool, args.seed)
        # Untimed warm-up: fills the artifact cache and the kernel's caches.
        harness.run_unit(workload, measurement, next(units), pinned)
        measurement.samples.clear()
        harness.run_units(workload, measurement, units, args.seconds, pinned, tracer)
    finally:
        workload.close()
        if tracer is not None:
            tracer.close()

    diagnostics = measurement.diagnostics()
    if tracer is None:
        print("diagnostics: " + json.dumps(diagnostics, sort_keys=True))
        metrics = measurement.end_to_end()
    else:
        metrics = traced_metrics(args, workload, measurement, tracer, diagnostics)
    return {
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }


def traced_metrics(
    args: argparse.Namespace, workload: Any, measurement: Any, tracer: Any,
    diagnostics: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    values = tracer.layer_metrics()
    untraced = measurement.runs_per_ref_s(traced=False)
    traced = measurement.runs_per_ref_s(traced=True)
    values["sim.events_per_ref_s"] = values["sim.events_per_run"] * untraced
    values["service.retries"] = float(
        sum(1 for event in getattr(workload, "events", []) if event.get("kind") == "retry")
    )
    values["service.quarantined"] = float(getattr(workload, "quarantined", 0))
    values["trace.overhead_pct"] = (untraced / traced - 1.0) * 100.0 if traced else 0.0
    values.update(diagnostics)
    units = metric_units()
    os.makedirs(args.out, exist_ok=True)
    tracer.write_spans(os.path.join(args.out, f"{args.workload}.spans.jsonl.gz"))
    write_table(os.path.join(args.out, f"{args.workload}.layers.md"), args, tracer, values, units)
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def write_table(
    path: str, args: argparse.Namespace, tracer: Any, values: Dict[str, float],
    units: Dict[str, str],
) -> None:
    lines = [
        f"# {args.workload}: traced run, seed {args.seed}, {args.seconds:g} s",
        "",
        "Self-time by package (sampled on the threads that execute runs):",
        "",
        "| package | sampled s | share |",
        "|---|---:|---:|",
    ]
    for package, count, share in tracer.package_table():
        lines.append(f"| {package} | {count:.3f} | {share:.3f} |")
    lines += ["", "Per-layer metrics:", "", "| metric | value | unit |", "|---|---:|---|"]
    for name in sorted(values):
        lines.append(f"| {name} | {values[name]:.6g} | {units[name]} |")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        harness.bootstrap()
    except harness.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    harness.pin_cpu()
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=harness.WORK_ROOT)
    try:
        if args.pin:
            from workloads import pin_digests

            digests = pin_digests(workdir)
            print(json.dumps({name: len(table) for name, table in digests.items()}))
            return 0
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
