"""Digests of the outputs a change that does not move output must keep.

    python3 tools/standing_check.py [--dump DIR]

Run it on two checkouts (say a commit and its parent) and compare the
printed lines; the package is imported from the ``src/`` next to this file.
With ``--dump DIR`` it also writes the records each digest hashes, and
``tools/output_diff.py`` compares two such dumps; its docstring sets out
what a change that moves output on purpose reports.

It prints six kinds of digest:

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
* one sha256 over ``l1concave path --lambdas 0.4,0.2,0.1,0.05,0.025`` runs
  on the same 10 designs and four kinds, with no other flag. Each run
  contributes as a sweep run does. Only a ``--lambdas`` grid starts from
  the cross-validated lasso, so these are the only standing runs that start
  reaches; they have their own digest so that the sweep digest stays
  comparable with its earlier values;
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

Each digest is the sha256 of its records, which ``--dump DIR`` writes as
JSON: ``study.json`` maps each seed to its ``repr`` text, ``cli.json`` maps
each of the four CLI digests to its runs (tag, exit code, standard output,
CSV text), and ``fits.json`` lists the paths, each a list of fits, each a
list of ``[field, kind, hex]`` with the field's exact bytes in hex.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
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
LAMBDAS_FLAGS = ("--lambdas", "0.4,0.2,0.1,0.05,0.025")
FIT_KINDS = ("l1", "hard", "scad", "mcp", "sica")
FIT_FLAGS = ((), ("--c", "0.25"), ("--lambda", "0.05", "--intercept"))
AUDIT_S, AUDIT_SAMPLES = (2, 3), 200
PATH_SEED, PATH_REPLICATES = 20240817, 2
CLI_DIGESTS = ("cli path sweep", "cli fit and score", "cli audit", "cli path --lambdas")


def study_record(seed: int) -> str:
    cfg = SimConfig(n=80, p=200, reps=2, seed=seed, methods=STUDY_METHODS)
    return repr(run_study(cfg, threads=2).rows)


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


def cli_record(tag: str, argv: list[str], out: str | None = None) -> dict:
    """Run the CLI on argv: its tag, exit code, standard output (out replaced
    by a fixed token) and the CSV it wrote at out (empty when out is None or
    it wrote none)."""
    if out is not None and os.path.exists(out):
        os.remove(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    csv_text, text = "", stdout.getvalue()
    if out is not None:
        text = text.replace(out, "OUT")
        if os.path.exists(out):
            with open(out, encoding="utf-8", newline="") as fh:
                csv_text = fh.read()
    return {"tag": tag, "exit": rc, "stdout": text, "csv": csv_text}


def cli_bytes(run: dict) -> bytes:
    """The bytes a CLI run adds to its digest."""
    return f"{run['tag']}\nexit {run['exit']}\n{run['stdout']}{run['csv']}".encode()


def sweep_runs(workdir: str, flag_sets=SWEEP_FLAGS, grid=("--grid-size", "20")) -> list[dict]:
    runs, out = [], os.path.join(workdir, "path.csv")
    for d in range(SWEEP_DESIGNS):
        design, response = write_design(workdir, d)
        for kind in SWEEP_KINDS:
            for flags in flag_sets:
                runs.append(cli_record(f"design {d} {kind} {' '.join(flags)}",
                                       ["path", design, response, "--penalty", kind, *flags,
                                        *grid, "--out", out], out))
    return runs


def lambdas_runs(workdir: str) -> list[dict]:
    return sweep_runs(workdir, (LAMBDAS_FLAGS,), ())


def fit_score_runs(workdir: str) -> list[dict]:
    runs, fit_csv = [], os.path.join(workdir, "fit.csv")
    for d in range(SWEEP_DESIGNS):
        design, response = write_design(workdir, d)
        for kind in FIT_KINDS:
            for flags in FIT_FLAGS:
                args = [design, response, "--penalty", kind, *flags]
                tag = f"design {d} {kind} {' '.join(flags)}"
                runs.append(cli_record(f"fit {tag}", ["fit", *args, "--out", fit_csv], fit_csv))
                runs.append(cli_record(f"score {tag}", ["score", *args, "--fit", fit_csv]))
    return runs


def audit_runs(workdir: str) -> list[dict]:
    runs, out = [], os.path.join(workdir, "audit.csv")
    for d in range(SWEEP_DESIGNS):
        design, _ = write_design(workdir, d)
        for s in AUDIT_S:
            runs.append(cli_record(f"audit design {d} s {s}",
                                   ["audit", design, "--s", str(s), "--samples",
                                    str(AUDIT_SAMPLES), "--out", out], out))
    return runs


def field_record(name: str, value) -> list:
    """[name, kind, hex] of one FitResult field: arrays as their dtype, shape
    and bytes, floats and integers packed with struct (so -0.0 differs from
    0.0), the penalty as its kind and packed levels."""
    if isinstance(value, np.ndarray):
        kind, raw = "array", f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    elif isinstance(value, bool):
        kind, raw = "bool", b"T" if value else b"F"
    elif isinstance(value, int):
        kind, raw = "int", struct.pack("<q", value)
    elif isinstance(value, float):
        kind, raw = "float", struct.pack("<d", value)
    else:
        kind = "penalty"
        raw = value.kind.encode() + struct.pack("<3d", value.lam, value.lambda0, value.shape)
    return [name, kind, raw.hex()]


def field_value(kind: str, hex_bytes: str):
    """The value a field_record holds; a penalty as (kind, lam, lambda0, shape)."""
    raw = bytes.fromhex(hex_bytes)
    if kind == "array":
        head, data = raw.split(b")", 1)
        dtype, shape = head.decode().split("(")
        return np.frombuffer(data, dtype=dtype).reshape([int(k) for k in shape.split(",") if k])
    if kind == "bool":
        return raw == b"T"
    if kind == "int":
        return struct.unpack("<q", raw)[0]
    if kind == "float":
        return struct.unpack("<d", raw)[0]
    return (raw[:-24].decode(), *struct.unpack("<3d", raw[-24:]))


def fit_record(fit) -> list[list]:
    """The field_record of every field of a FitResult, in field order."""
    return [field_record(f.name, getattr(fit, f.name)) for f in dataclasses.fields(fit)]


def path_fit_records() -> list[list[list]]:
    """Per path that _replicate_rows fits, per fit, its field_records."""
    paths = []
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
    return [[fit_record(fit) for fit in path.fits] for path in paths]


def fits_digest(paths: list[list[list]]) -> str:
    digest = hashlib.sha256()
    for fit in (fit for path in paths for fit in path):
        for name, _, hex_bytes in fit:
            digest.update(name.encode() + bytes.fromhex(hex_bytes))
    return digest.hexdigest()


def write_dump(directory: str, records: dict):
    """Write records ({"study": ..., "cli": ..., "fits": ...}) as study.json,
    cli.json and fits.json in directory."""
    os.makedirs(directory, exist_ok=True)
    for name, value in records.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(value, fh)


def read_dump(directory: str) -> dict:
    records = {}
    for name in ("study", "cli", "fits"):
        with open(os.path.join(directory, f"{name}.json"), encoding="utf-8") as fh:
            records[name] = json.load(fh)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print the standing output digests.")
    ap.add_argument("--dump", metavar="DIR",
                    help="also write the records each digest hashes to DIR")
    args = ap.parse_args(argv)
    records = {"study": {}, "cli": {}}
    for seed in STUDY_SEEDS:
        text = records["study"][str(seed)] = study_record(seed)
        print(f"study seed {seed}: {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name, runner in zip(CLI_DIGESTS, (sweep_runs, fit_score_runs, audit_runs,
                                              lambdas_runs)):
            runs = records["cli"][name] = runner(workdir)
            digest = hashlib.sha256(b"".join(map(cli_bytes, runs))).hexdigest()
            print(f"{name} ({len(runs)} runs): {digest}", flush=True)
    paths = records["fits"] = path_fit_records()
    print(f"study path fits ({len(paths)} paths, {sum(map(len, paths))} fits): "
          f"{fits_digest(paths)}")
    if args.dump is not None:
        write_dump(args.dump, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
