"""Self-test of the benchmark harness, kept out of the package's test suite.

    python3 perfbench/selftest.py

Checks that the tracer wraps every layer, that the spans and counts of pool
workers reach the parent and equal those of a serial run, that removing the
tracer restores every package attribute, and that the untraced loop refuses
to run while wrappers are installed. Exits 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def snapshot(tracing) -> dict:
    return {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}


def traced_study(tracing, simulate, threads, workdir):
    cfg = simulate.SimConfig(n=30, p=20, reps=2, seed=5, methods=("lasso", "l1_hard", "oracle"))
    tracer = tracing.Tracer(workdir)
    tracer.install()
    try:
        root = tracer.open_root("op0")
        report = simulate.run_study(cfg, threads=threads)
        tracer.close_root(root)
    finally:
        tracer.remove()
    return report, tracer


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from l1concave import cli, simulate  # noqa: F401 - every layer is loaded

    import run
    import tracing

    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    before = snapshot(tracing)
    workdir = os.path.join(ROOT, ".perfbench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer(workdir)
    tracer.install()
    wrapped = set(tracing.wrapped_attributes())
    for layer in tracing.LAYERS:
        check(any(n.startswith(f"l1concave.{layer}.") for n in wrapped), f"layer {layer} is wrapped")
    for name in ("simulate.fit_path", "simulate.cv_select", "scalar_prox.make_prox",
                 "solver.penalty_value", "cli.read_matrix_csv", "tuning._cd_fit"):
        want = not name.endswith("_cd_fit")  # private engine stays unwrapped
        check((f"l1concave.{name}" in wrapped) == want,
              f"l1concave.{name} {'is' if want else 'is not'} wrapped")
    try:
        run.measure(argparse.Namespace(seconds=0), None, None, tracing)
        check(False, "untraced loop refuses to start while wrappers are installed")
    except RuntimeError:
        check(True, "untraced loop refuses to start while wrappers are installed")
    tracer.remove()
    after = snapshot(tracing)
    check(after.keys() == before.keys() and all(after[k] is before[k] for k in before),
          "removal restores every package attribute")
    check(not tracing.wrapped_attributes(), "no wrapper left after removal")

    serial, t1 = traced_study(tracing, simulate, 1, workdir)
    pooled, t2 = traced_study(tracing, simulate, 2, workdir)
    check(repr(serial.rows) == repr(pooled.rows), "pool rows equal serial rows under tracing")
    c1 = {k: v for k, v in t1.counters().items() if isinstance(v, int)}
    c2 = {k: v for k, v in t2.counters().items() if isinstance(v, int)}
    check(c1 == c2 and c1.get("solver.fits", 0) > 0, "pool work counts equal serial counts")
    reps = [s for s in t2.export() if s["name"] == "simulate.replicate"]
    study = [s for s in t2.export() if s["name"] == "simulate.run_study"]
    check(len(reps) == 2 and all(s["parent"] == study[0]["id"] for s in reps),
          "worker spans reach the parent, under run_study")
    check(not os.listdir(workdir), "worker span files are merged and removed")
    check(not tracing.wrapped_attributes(), "no wrapper left after traced studies")
    print("selftest", "passed" if not failures else f"FAILED ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
