"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py [workload ...]

Runs every input of each named workload's pool once (all workloads when none
is named) and rewrites those entries of ``reference.json``. Record only from
a commit whose outputs are known to be correct: every later run is checked
against these values. The studies are recorded on one process, so the pool
workload's rows are checked against serial rows.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list[str]) -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import REFERENCE, WORKLOADS

    names = argv or [n for n, w in WORKLOADS.items() if w.ref_name == n]
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names:
        workdir = os.path.join(ROOT, ".perfbench_work", f"record-{name}")
        os.makedirs(workdir, exist_ok=True)
        w = WORKLOADS[name](ROOT, 0, workdir)
        w.setup()
        entries = {}
        for key in w.pool:
            t0 = time.perf_counter()
            entries[str(key)] = w.record(key)
            print(f"{name} input {key}: {time.perf_counter() - t0:.2f} s", flush=True)
        ref[w.ref_name] = entries
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
