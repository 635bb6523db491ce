"""Layered benchmark of l1concave: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload desk_study --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/``. With
``--trace 0`` the run times operations back to back for about ``--seconds``
seconds (it visits every input of the pool once, then starts another
operation only if that should end nearer the deadline than now) and reports
the end-to-end times as the mean over the inputs of the input's median
operation. With ``--trace 1`` it times one operation
untraced, then traces that operation twice (the deterministic counters of the
two must agree) and keeps tracing further operations until the time is up; it
reports per-layer metrics per operation and the tracing overhead. Every output
is checked against ``reference.json``. The last line of standard output is
the JSON result; the run's details, with the environment, go to
``.perfbench_work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from before the package import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NEEDED = (os.path.join("src", "l1concave", "__init__.py"), os.path.join("configs", "study_desk.cfg"))
SETUP_PROBES = 6  # extra set-ups in fresh interpreters; setup_s is the median


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for the set-up probes)")
    return ap.parse_args(argv)


def environment(np) -> dict:
    import multiprocessing
    import platform

    from l1concave import __file__ as pkg_file

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg_dir = os.path.dirname(pkg_file)
    for name in sorted(os.listdir(pkg_dir)):
        if name.endswith(".py"):
            with open(os.path.join(pkg_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pool_start_method": multiprocessing.get_start_method(allow_none=False),
    }


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name == "simulate.pool_efficiency":
        return "ratio"
    if "bytes" in name:
        return "B"
    return "s" if name.endswith(("_s", ".s")) else "count"


def cpu_now() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process plus its largest child
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024.0


def run_op(workload, k, ref, tracer=None, run_id=None) -> dict:
    """One timed operation and its reference check."""
    key = workload.key(k)
    rec = {"k": k, "input": key, "traced": tracer is not None, "ok": False, "error": None}
    c0 = cpu_now()
    t0 = time.perf_counter()
    root = tracer.open_root(run_id) if tracer else None
    try:
        output = workload.run(key)
    except BaseException as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        if isinstance(exc, KeyboardInterrupt):
            raise
        rec["error"] = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        output = None
    finally:
        if root:
            tracer.close_root(root)
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = cpu_now() - c0
    if rec["error"] is None:
        try:
            err = workload.check(key, output, ref[str(key)])
        except Exception as exc:  # noqa: BLE001 - a malformed output is a failed operation
            err = f"check raised {type(exc).__name__}: {exc}"
        rec["error"] = err
        rec["ok"] = err is None
        if tracer and rec["ok"]:
            tracer.counts["cli.bytes_written"] += workload.bytes_written(output)
    return rec


def probe_setups(args) -> list[float]:
    """Set up again in fresh interpreters, so setup_s is a median, not one sample."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
                             cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def more(ops, start, seconds) -> bool:
    """Start another operation if it should end nearer the deadline than now."""
    typical = statistics.median(r["wall_s"] for r in ops)
    return time.perf_counter() - start + typical / 2 < seconds


def per_input_median(ops, key) -> float:
    """Mean over the inputs of each input's median, so that the work measured
    does not depend on which inputs the run happened to visit more often."""
    by_input = {}
    for r in ops:
        by_input.setdefault(r["input"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def measure(args, workload, ref, tracing) -> tuple[list, dict]:
    """Untraced closed loop; returns the operation records and end-to-end metrics."""
    tracing.assert_clean()
    ops = []
    start = time.perf_counter()
    while len(ops) < len(workload.pool) or more(ops, start, args.seconds):
        ops.append(run_op(workload, len(ops), ref))
    rss = peak_rss_mb()
    good = [r for r in ops if r["ok"]] or ops
    return ops, {
        "wall_s": per_input_median(good, "wall_s"),
        "cpu_s": per_input_median(good, "cpu_s"),
        "peak_rss_mb": rss,
    }


def exact_counters(counts: dict) -> dict:
    """The work counts (integers); they depend on the inputs only, not on timing."""
    return {k: v for k, v in sorted(counts.items()) if isinstance(v, int)}


def measure_traced(args, workload, ref, tracing, workdir) -> tuple[list, dict, dict]:
    """Untraced reference op, then traced ops; per-layer metrics per traced op."""
    tracing.assert_clean()
    ops = [run_op(workload, 0, ref)]
    tracer = tracing.Tracer(workdir)
    tracer.install()
    try:
        start = time.perf_counter()
        while len(ops) < 3 or more(ops[1:], start, args.seconds):
            before = tracer.counters()
            k = 0 if len(ops) < 3 else len(ops) - 2  # ops 1 and 2 repeat input 0
            ops.append(run_op(workload, k, ref, tracer, run_id=f"op{len(ops)}"))
            after = tracer.counters()
            ops[-1]["counters"] = exact_counters({c: after[c] - before.get(c, 0) for c in after})
    finally:
        tracer.remove()
    tracing.assert_clean()
    traced = ops[1:]
    spans = tracer.export()
    metrics = tracing.layer_metrics(spans, tracer.counters(), len(traced))
    # ops 1 and 2 ran the untraced op's input: compare like with like
    roots = {s["id"]: s["run"] for s in spans if s["name"] == "bench.op"}
    top = {"op1": 0.0, "op2": 0.0}
    for s in spans:
        if roots.get(s["parent"]) in top:
            top[roots[s["parent"]]] += s["end"] - s["start"]
    metrics["trace.top_spans_s"] = statistics.median(top.values())
    metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in ops[1:3]) - ops[0]["wall_s"]
    repeat_ok = ops[1]["counters"] == ops[2]["counters"]
    with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": spans,
                   "counters": tracer.counters()}, fh)
    return ops, metrics, {"counters_repeat": repeat_ok}


def main(argv=None) -> int:
    missing = [p for p in NEEDED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: run from a checkout of the repository; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = parse_args(argv)

    import numpy as np

    import l1concave  # noqa: F401 - part of the timed set-up
    import tracing
    from workloads import WORKLOADS, load_reference

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".perfbench_work", name + ("-probe" if args.setup_only else ""))
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    workload.setup()
    setup_first = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    ref = load_reference()[workload.ref_name]
    workload.warmup()
    extra = {}
    if args.trace:
        ops, values, extra = measure_traced(args, workload, ref, tracing, workdir)
    else:
        ops, values = measure(args, workload, ref, tracing)
        values["setup_s"] = statistics.median([setup_first] + probe_setups(args))
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}

    env = environment(np)  # after the loop: its git call would count in the children's peak RSS
    print("env " + json.dumps(env))
    failed = sum(not r["ok"] for r in ops)
    correct = failed == 0 and all(extra.values())
    for r in ops:
        flag = "ok" if r["ok"] else f"FAILED: {r['error']}"
        print(f"op {r['k']} input={r['input']} traced={int(r['traced'])} "
              f"wall_s={r['wall_s']:.4f} cpu_s={r['cpu_s']:.4f} {flag}")
    for k, m in metrics.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed / len(ops):.6g} ({failed} of {len(ops)} operations failed)")
    for k, v in extra.items():
        print(f"{k} {'ok' if v else 'FAILED'}")
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "ops": ops, "metrics": metrics,
                   "checks": extra}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
