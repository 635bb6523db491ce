"""The benchmark's workloads: inputs, one operation, and its reference check.

Every workload draws its inputs from a fixed pool, so that each input has a
reference output recorded by ``record.py``; the run seed fixes the order in
which a run visits the pool. Operations go through the package's public
entry points only (``simulate.run_study`` and ``cli.main``); the design and
response CSVs are generated here, with numpy, so the program only sees
generated inputs.

Why these pools: every run visits every input of its pool at least once,
and ``run.py`` reports the mean over the inputs of each input's median time,
so a run measures the same work whatever its seed. The pools of the long
operations are therefore small: two study seeds (the work of one desk
replicate varies by about 10% with its data) and two CV fold seeds on one
fixed wide design (the work of ``cli path`` varies by about 16% from one
design to the next, but by about 3% with the fold seed).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
REL_TOL = 1e-9  # reference comparison for floats; counts and labels must match exactly

STUDY_BETA = (1.0, -0.5, 0.7, -1.2, -0.9, 0.3, 0.55)
DESK_SEEDS = (20240817, 20240818)
WIDE_N, WIDE_P, WIDE_RHO, WIDE_SIGMA = 100, 500, 0.5, 0.25
WIDE_SEED = 20240817
FOLD_SEEDS = (0, 1)
AUDIT_SEEDS = tuple(range(16))


def same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def plain(x):
    """numpy scalars -> JSON-ready Python values."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def ar1_data(n: int, p: int, rho: float, sigma: float, seed):
    """AR(1) Gaussian design (unit variances, correlation rho^|i-j|) and
    y = X beta0 + sigma z with the study's coefficient vector."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + c * Z[:, j]
    beta0 = np.zeros(p)
    beta0[: len(STUDY_BETA)] = STUDY_BETA
    return X, X @ beta0 + sigma * rng.standard_normal(n)


def write_csv(path: str, header: list[str], rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One closed-loop client; operation k uses input ``key(k)``."""

    name = ""
    ref_name = ""
    pool: tuple = ()

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.workdir = workdir
        self.order = random.Random(seed).sample(self.pool, len(self.pool))

    def key(self, k: int):
        return self.order[k % len(self.order)]

    def setup(self):
        """Make the inputs; timed as set-up together with the package import."""

    def warmup(self):
        """One small untimed operation, so lazy imports and first-call costs are paid."""

    def run(self, key):
        """The timed operation; returns its output."""
        raise NotImplementedError

    def check(self, key, output, ref) -> str | None:
        """None when the output matches the reference, else what differs."""
        raise NotImplementedError

    def record(self, key):
        """The reference entry for one input, from a correct run."""
        raise NotImplementedError

    def bytes_written(self, output) -> int:
        return 0


class DeskStudy(Workload):
    """The paper's Monte-Carlo study at desk scale, serial, one replicate per
    operation: the shortest whole unit of the study, so that a run holds
    enough operations per input for a median."""

    name = ref_name = "desk_study"
    pool = DESK_SEEDS
    reps = 1
    threads = 1

    def setup(self):
        from l1concave import cli, simulate

        conf = cli.parse_config(os.path.join(self.root, "configs", "study_desk.cfg"))
        self.base = {k: conf[k] for k in ("n", "p", "rho", "sigma") if k in conf}
        if "methods" in conf:
            self.base["methods"] = tuple(m.strip() for m in conf["methods"].split(",") if m.strip())
        self.simulate = simulate

    def config(self, seed, **over):
        return self.simulate.SimConfig(reps=self.reps, seed=seed, **{**self.base, **over})

    def warmup(self):
        self.simulate.run_study(self.config(1, methods=("lasso", "l1_scad")), threads=self.threads)

    def run(self, key):
        return self.simulate.run_study(self.config(key), threads=self.threads)

    def check(self, key, report, ref):
        if len(report.rows) != len(ref["rows"]):
            return f"{len(report.rows)} rows, reference has {len(ref['rows'])}"
        for name, want in ref["means"].items():
            got = report.means[tuple(name.split("/"))]
            if not same(got, want):
                return f"mean {name} = {got!r}, reference {want!r}"
        return None

    def record(self, key):
        report = self.simulate.run_study(self.config(key), threads=1)
        cols = self.simulate.RAW_COLUMNS
        return {"means": {f"{m}/{k}": plain(v) for (m, k), v in report.means.items()},
                "columns": list(cols),
                "rows": [[plain(row[c]) for c in cols] for row in report.rows]}


class DeskStudyPool(DeskStudy):
    """The same study and seeds on a process pool, two replicates per
    operation; its rows must match the serial rows that ``record`` makes."""

    name = ref_name = "desk_study_pool"
    reps = 2
    threads = max(2, os.cpu_count() or 1)

    def check(self, key, report, ref):
        err = super().check(key, report, ref)
        if err:
            return err
        for i, (row, want) in enumerate(zip(report.rows, ref["rows"])):
            for col, w in zip(ref["columns"], want):
                if not same(plain(row[col]), w):
                    return f"row {i} {col} = {row[col]!r}, serial reference {w!r}"
        return None


class CliWorkload(Workload):
    """``cli.main`` on the wide AR(1) design written as CSV."""

    def setup(self):
        from l1concave import cli

        self.cli = cli
        X, y = ar1_data(WIDE_N, WIDE_P, WIDE_RHO, WIDE_SIGMA, WIDE_SEED)
        self.design = os.path.join(self.workdir, "X.csv")
        self.response = os.path.join(self.workdir, "y.csv")
        self.out = os.path.join(self.workdir, f"{self.name}.out.csv")
        write_csv(self.design, [f"x{j + 1}" for j in range(WIDE_P)], X)
        write_csv(self.response, ["y"], y[:, None])

    def argv(self, key) -> list[str]:
        raise NotImplementedError

    def run(self, key):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv(key))

    def warmup(self):
        self.run(self.key(0))

    def bytes_written(self, output) -> int:
        return os.path.getsize(self.out)


class CliPathWide(CliWorkload):
    """``cli path`` with SCAD on the wide design; CV-lasso initialisation dominates."""

    name = ref_name = "cli_path_wide"
    pool = FOLD_SEEDS

    def argv(self, key):
        return ["path", self.design, self.response, "--penalty", "scad", "--c", "0.25",
                "--grid-size", "50", "--seed", str(key), "--out", self.out]

    def warmup(self):
        # a short grid on two folds: the full command takes several seconds
        with contextlib.redirect_stdout(io.StringIO()):
            self.cli.main(self.argv(self.key(0))[:-2] + ["--grid-size", "3", "--folds", "2",
                                                         "--out", self.out])

    def summary(self, rc) -> dict:
        rows = read_csv(self.out)
        chosen = [r for r in rows if r["selected"] == "1"]
        return {"exit": rc, "fits": len(rows), "selected": len(chosen),
                "selected_lambda": float(chosen[0]["lambda"]) if chosen else None,
                "selected_nnz": int(chosen[0]["nnz"]) if chosen else None,
                "nnz_path": [int(r["nnz"]) for r in rows]}

    def check(self, key, rc, ref):
        got = self.summary(rc)
        for k, want in ref.items():
            if not same(got[k], want):
                return f"{k} = {got[k]!r}, reference {want!r}"
        return None

    def record(self, key):
        return self.summary(self.run(key))


class CliAudit(CliWorkload):
    """``cli audit`` on the wide design: CSV parsing and eigenvalue diagnostics only."""

    name = ref_name = "cli_audit"
    pool = AUDIT_SEEDS

    def argv(self, key):
        return ["audit", self.design, "--s", "7", "--samples", "1000",
                "--seed", str(key), "--out", self.out]

    def rows(self):
        return [[r["quantity"], float(r["value"]), r["method"], int(r["evaluated"])]
                for r in read_csv(self.out)]

    def check(self, key, rc, ref):
        if rc != ref["exit"]:
            return f"exit {rc}, reference {ref['exit']}"
        got = self.rows()
        if len(got) != len(ref["rows"]):
            return f"{len(got)} rows, reference has {len(ref['rows'])}"
        for row, want in zip(got, ref["rows"]):
            if not all(same(a, b) for a, b in zip(row, want)):
                return f"row {row!r}, reference {want!r}"
        return None

    def record(self, key):
        rc = self.run(key)
        return {"exit": rc, "rows": self.rows()}


WORKLOADS = {w.name: w for w in (DeskStudy, DeskStudyPool, CliPathWide, CliAudit)}


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)
