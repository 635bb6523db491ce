"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads desk_study,cli_audit]
                                [--trace-check] [--point LABEL]

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the bound in
``BENCHMARK.json``. ``--trace-check`` also makes two traced runs per workload
with the same seed and requires their work counts to agree exactly.
``--point LABEL`` appends the medians to ``trajectory.json`` as a new point;
every call writes its values to ``.perfbench_work/repeat-<seeds>.json``.
Seeds run in the outer loop, so a slow spell of the machine touches every
workload rather than one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(spec, workload, seed, trace) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if res.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    with open(os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}", "result.json"),
              encoding="utf-8") as fh:
        detail = json.load(fh)
    print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, correct={result['correct']}, "
          f"failed {result['failed']} of {result['attempted']}", flush=True)
    return result, detail


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--trace-check", action="store_true")
    ap.add_argument("--point", default=None, help="append the medians to trajectory.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in names}
    env, ok = None, True
    for seed in seeds(args.seeds):
        for w in names:
            result, detail = run(spec, w, seed, 0)
            env = detail["env"]
            ok &= result["correct"] and result["failed"] == 0
            for k, m in result["metrics"].items():
                values[w].setdefault(k, []).append(m["value"])

    point = {"label": args.point, "env": env, "run_seconds": spec["run_seconds"],
             "seeds": args.seeds, "end_to_end": {}, "per_layer": {}}
    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in names:
        point["end_to_end"][w] = {}
        for k, vals in values[w].items():
            s = summary(vals)
            point["end_to_end"][w][k] = s
            b = bounds[k]
            verdict = ("-" if k == "setup_s" else
                       "steady" if s["spread"] < b / 3 else "within bound" if s["spread"] <= b else "TOO WIDE")
            print(f"{w:16} {k:12} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['spread']:7.3f} {b:6.2f}  {verdict}")

    if args.trace_check:
        seed = seeds(args.seeds)[0]
        for w in names:
            a, da = run(spec, w, seed, 1)
            b, db = run(spec, w, seed, 1)
            ok &= a["correct"] and b["correct"]
            same = da["ops"][1]["counters"] == db["ops"][1]["counters"]
            ok &= same
            print(f"{w}: work counts of two traced runs {'match' if same else 'DIFFER'}; "
                  f"tracing overhead {da['metrics']['trace.overhead_s']['value']:.4f} s and "
                  f"{db['metrics']['trace.overhead_s']['value']:.4f} s")
            point["per_layer"][w] = {"counts": da["ops"][1]["counters"],
                                     **{k: m["value"] for k, m in a["metrics"].items()}}

    with open(os.path.join(WORK, f"repeat-{args.seeds}.json"), "w", encoding="utf-8") as fh:
        json.dump({"values": values, "summary": point}, fh, indent=1)
    if args.point:
        path = os.path.join(HERE, "trajectory.json")
        points = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                points = json.load(fh)
        points.append(point)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(points, fh, indent=1)
            fh.write("\n")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
