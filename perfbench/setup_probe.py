"""One fresh-interpreter set-up, timed by the parent benchmark process.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Imports the
program, builds the workload's warm state, runs one warm-up unit, prints
``ready``, then times the reference kernel and prints it as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile


def main(argv: list) -> int:
    name, seed = argv[0], int(argv[1])
    import harness

    harness.bootstrap()
    from workloads import WORKLOADS, load_digests

    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_ROOT) as workdir:
        workload = WORKLOADS[name](workdir)
        pool = sorted(int(key) for key in load_digests()[name])
        workload.prepare()
        try:
            unit = next(workload.units(pool, seed))
            workload.before(unit)
            workload.run(unit)
            print("ready", flush=True)
            harness.time_ref(1, workload.ref_vector)
            ref_wall = harness.time_ref(workload.ref_repeats, workload.ref_vector)
        finally:
            workload.close()
    print(json.dumps({"ref_wall": ref_wall, "repeats": workload.ref_repeats}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
