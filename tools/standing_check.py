"""Digests of the outputs a change that does not move output must keep.

    python3 tools/standing_check.py

Run it on two checkouts (say a commit and its parent) and compare the
printed lines; the package is imported from the ``src/`` next to this file.

It prints five kinds of digest:

* the standing study hashes: sha256 of ``repr(run_study(SimConfig(n=80,
  p=200, reps=2, seed=s, methods=...), threads=2).rows)`` for the four
  standing seeds, with all six methods;
* one sha256 over a fixed ``l1concave path`` sweep: 10 AR(1) designs
  (n = 60, p = 120, rho = 0.5, sigma = 0.3, drawn here with numpy), the
  kinds l1, hard, scad and sica, the flag sets none, ``--cv``, ``--c 0.25``
  and ``--c 0.25 --cv``, at ``--grid-size 20``. Each run contributes its
  arguments, exit code, standard output (with the output path replaced by
  a fixed token) and the bytes of the CSV it wrote. Standard error is not
  part of the digest;
* one sha256 over ``l1concave fit`` runs, each followed by an ``l1concave
  score`` run on the fit it wrote: the same 10 designs, every penalty kind,
  and the flag sets none, ``--c 0.25`` and ``--lambda 0.05 --intercept``.
  Each run contributes as a path run does; a score run writes no CSV;
* one sha256 over ``l1concave audit`` runs on the same 10 designs at
  ``--s 2`` and ``--s 3`` with ``--samples 200``. Each run contributes as a
  path run does;
* one sha256 over every field of every fit on the paths that
  ``simulate._replicate_rows`` fits for the default study methods (16 paths
  of 50 levels per replicate) at seed 20240817, replicates 0 and 1: arrays as
  their dtype, shape and bytes, floats and integers packed with ``struct``
  (so -0.0 differs from 0.0), the penalty as its kind and packed levels. The
  study hashes see only each BIC-chosen fit's row; this sees every fit,
  its objective and its per-sweep objectives.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import struct
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from l1concave import cli, simulate  # noqa: E402
from l1concave.simulate import SimConfig, run_study  # noqa: E402

STUDY_SEEDS = (20240817, 20240818, 1, 2024)
STUDY_METHODS = ("lasso", "l1_scad", "l1_hard", "l1_sica", "l1_mcp", "oracle")
SWEEP_DESIGNS = 10
SWEEP_N, SWEEP_P, SWEEP_RHO, SWEEP_SIGMA = 60, 120, 0.5, 0.3
SWEEP_BETA = (1.0, -0.5, 0.7, -1.2, -0.9, 0.3, 0.55)
SWEEP_KINDS = ("l1", "hard", "scad", "sica")
SWEEP_FLAGS = ((), ("--cv",), ("--c", "0.25"), ("--c", "0.25", "--cv"))
FIT_KINDS = ("l1", "hard", "scad", "mcp", "sica")
FIT_FLAGS = ((), ("--c", "0.25"), ("--lambda", "0.05", "--intercept"))
AUDIT_S, AUDIT_SAMPLES = (2, 3), 200
PATH_SEED, PATH_REPLICATES = 20240817, 2


def study_hash(seed: int) -> str:
    cfg = SimConfig(n=80, p=200, reps=2, seed=seed, methods=STUDY_METHODS)
    return hashlib.sha256(repr(run_study(cfg, threads=2).rows).encode()).hexdigest()


def ar1_design(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((SWEEP_N, SWEEP_P))
    X = np.empty_like(Z)
    X[:, 0] = Z[:, 0]
    c = math.sqrt(1.0 - SWEEP_RHO ** 2)
    for j in range(1, SWEEP_P):
        X[:, j] = SWEEP_RHO * X[:, j - 1] + c * Z[:, j]
    beta0 = np.zeros(SWEEP_P)
    beta0[: len(SWEEP_BETA)] = SWEEP_BETA
    return X, X @ beta0 + SWEEP_SIGMA * rng.standard_normal(SWEEP_N)


def write_csv(path: str, header: list[str], rows: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in np.atleast_1d(row)) + "\n")


def write_design(workdir: str, d: int) -> tuple[str, str]:
    """Write sweep design d and its response as CSVs; return their paths."""
    X, y = ar1_design(d)
    design, response = os.path.join(workdir, "X.csv"), os.path.join(workdir, "y.csv")
    write_csv(design, [f"x{j}" for j in range(SWEEP_P)], X)
    write_csv(response, ["y"], y)
    return design, response


def run_into(digest, tag: str, argv: list[str], out: str | None = None):
    """Run the CLI on argv and add its exit code, standard output and the CSV
    it wrote at out (empty when out is None or it wrote none) to digest."""
    if out is not None and os.path.exists(out):
        os.remove(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    csv_bytes, text = b"", stdout.getvalue()
    if out is not None:
        text = text.replace(out, "OUT")
        if os.path.exists(out):
            with open(out, "rb") as fh:
                csv_bytes = fh.read()
    for part in (f"{tag}\nexit {rc}\n", text):
        digest.update(part.encode())
    digest.update(csv_bytes)


def sweep_digest(workdir: str) -> tuple[str, int]:
    digest, runs = hashlib.sha256(), 0
    out = os.path.join(workdir, "path.csv")
    for d in range(SWEEP_DESIGNS):
        design, response = write_design(workdir, d)
        for kind in SWEEP_KINDS:
            for flags in SWEEP_FLAGS:
                run_into(digest, f"design {d} {kind} {' '.join(flags)}",
                         ["path", design, response, "--penalty", kind, *flags,
                          "--grid-size", "20", "--out", out], out)
                runs += 1
    return digest.hexdigest(), runs


def fit_score_digest(workdir: str) -> tuple[str, int]:
    digest, runs = hashlib.sha256(), 0
    fit_csv = os.path.join(workdir, "fit.csv")
    for d in range(SWEEP_DESIGNS):
        design, response = write_design(workdir, d)
        for kind in FIT_KINDS:
            for flags in FIT_FLAGS:
                args = [design, response, "--penalty", kind, *flags]
                tag = f"design {d} {kind} {' '.join(flags)}"
                run_into(digest, f"fit {tag}", ["fit", *args, "--out", fit_csv], fit_csv)
                run_into(digest, f"score {tag}", ["score", *args, "--fit", fit_csv])
                runs += 2
    return digest.hexdigest(), runs


def audit_digest(workdir: str) -> tuple[str, int]:
    digest, runs = hashlib.sha256(), 0
    out = os.path.join(workdir, "audit.csv")
    for d in range(SWEEP_DESIGNS):
        design, _ = write_design(workdir, d)
        for s in AUDIT_S:
            run_into(digest, f"audit design {d} s {s}",
                     ["audit", design, "--s", str(s), "--samples", str(AUDIT_SAMPLES),
                      "--out", out], out)
            runs += 1
    return digest.hexdigest(), runs


def value_bytes(value) -> bytes:
    """Exact bytes of one FitResult field value."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, bool):
        return b"T" if value else b"F"
    if isinstance(value, int):
        return struct.pack("<q", value)
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value.kind.encode() + struct.pack("<3d", value.lam, value.lambda0, value.shape)


def path_fits_digest() -> tuple[str, int, int]:
    digest, paths = hashlib.sha256(), []
    fit_path = simulate.fit_path

    def recording(*args, **kwargs):
        paths.append(fit_path(*args, **kwargs))
        return paths[-1]

    simulate.fit_path = recording
    try:
        cfg = SimConfig(n=80, p=200, reps=PATH_REPLICATES, seed=PATH_SEED)
        for r in range(PATH_REPLICATES):
            simulate._replicate_rows(cfg, r)
    finally:
        simulate.fit_path = fit_path
    fits = [fit for path in paths for fit in path.fits]
    for fit in fits:
        for field in dataclasses.fields(fit):
            digest.update(field.name.encode() + value_bytes(getattr(fit, field.name)))
    return digest.hexdigest(), len(paths), len(fits)


def main() -> int:
    for seed in STUDY_SEEDS:
        print(f"study seed {seed}: {study_hash(seed)}", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        digest, runs = sweep_digest(workdir)
        print(f"cli path sweep ({runs} runs): {digest}", flush=True)
        digest, runs = fit_score_digest(workdir)
        print(f"cli fit and score ({runs} runs): {digest}", flush=True)
        digest, runs = audit_digest(workdir)
    print(f"cli audit ({runs} runs): {digest}", flush=True)
    digest, paths, fits = path_fits_digest()
    print(f"study path fits ({paths} paths, {fits} fits): {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
