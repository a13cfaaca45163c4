"""Steadiness report: run one workload N times and summarise its spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workload hidden-qma --runs 10

Each run is a fresh ``run.py`` process of ``run_seconds`` (from
``BENCHMARK.json``) with its own ``--seed``, 1..N.  For the normalised
``runs_per_ref_s`` next to the raw ``host.runs_per_s``, and for every
other end-to-end metric, it prints the median, quartiles, min/max and the
quartile spread as a share of the median, next to the metric's bound.
Runs whose reference correlated weakly with the units (``ref.unit_corr``
below :data:`MIN_CORR`) are flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Runs whose ``ref.unit_corr`` is below this are flagged.
MIN_CORR = 0.3


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    output = subprocess.run(
        command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.splitlines()
    result = json.loads(output[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    for line in output:
        if line.startswith("diagnostics: "):
            values.update(json.loads(line[len("diagnostics: "):]))
    values["correct"] = float(result["correct"])
    return values


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    runs = []
    for seed in range(1, args.runs + 1):
        values = run_once(args.workload, seed, seconds)
        runs.append(values)
        flag = "  LOW ref.unit_corr" if values["ref.unit_corr"] < MIN_CORR else ""
        print(
            f"seed {seed:3d}: runs_per_ref_s {values['runs_per_ref_s']:.4f}  "
            f"host.runs_per_s {values['host.runs_per_s']:.4f}  "
            f"ref.unit_corr {values['ref.unit_corr']:+.2f}  "
            f"setup_s {values['setup_s']:.4f}{flag}",
            flush=True,
        )
    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"{'metric':22s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'min':>11s} "
          f"{'max':>11s} {'IQR/med':>8s} {'bound':>6s}")
    names = ["runs_per_ref_s", "host.runs_per_s"] + sorted(
        name for name in bounds if name != "runs_per_ref_s"
    ) + ["ref.unit_corr", "ref.share"]
    for name in names:
        stats = summary([values[name] for values in runs])
        bound = bounds.get(name)
        print(
            f"{name:22s} {stats['median']:11.5g} {stats['q1']:11.5g} {stats['q3']:11.5g} "
            f"{stats['min']:11.5g} {stats['max']:11.5g} {stats['spread']:8.2%} "
            f"{'' if bound is None else format(bound, '.2f'):>6s}"
        )
    return 0 if all(values["correct"] for values in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
