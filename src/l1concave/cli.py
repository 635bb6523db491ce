"""Command-line front end: CSV in, CSV out.

Subcommands: fit (single problem), path (trace a level grid), study (run the
Monte-Carlo harness from a config file), audit (design-condition
diagnostics), score (recompute a fit's objective from files).

CSV conventions: comma separated, header row required, UTF-8, no quoting of
numerics; NaN/Inf rejected on input. Floats are written with 17 significant
digits so write-then-read round-trips exactly.

Config files are flat ``key = value`` lines with ``#`` comments. Recognized
study keys: n, p, reps, seed, rho, sigma, beta0, methods, test_mode,
test_size, c_grid, grid_size, grid_ratio, cv_folds, tol, max_iter, threads,
report, raw. Unknown keys are a hard error.

Exit codes: 0 success, 1 input/config error, 2 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .metrics import (equicorr_gram_infnorm, restricted_eigenvalue_estimate,
                      sparse_eigenvalue)
from .penalty import KINDS, PenaltySpec
from .simulate import (SimConfig, combined_lambda_grid, format_study_table, run_study,
                       write_raw_csv, write_report_csv)
from .solver import (RegressionProblem, default_lambda_grid, fit_combined,
                     objective_value, standardize, computable_certificate,
                     universal_lambda0)
from .tuning import bic_select, cv_select
from . import solver


class CLIError(Exception):
    """Input or configuration error; exits with status 1."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a numeric CSV with a header row; report the first bad cell."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CLIError(f"{path}: empty file, header row required") from None
        ncol = len(header)
        rows = []
        for i, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != ncol:
                raise CLIError(f"{path}: row {i} has {len(rec)} fields, expected {ncol}")
            vals = []
            for j, cell in enumerate(rec, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise CLIError(f"{path}: row {i}, column {j}: not a number: {cell!r}") from None
                if not math.isfinite(v):
                    raise CLIError(f"{path}: row {i}, column {j}: non-finite value {cell!r}")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise CLIError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def read_vector_csv(path: str) -> np.ndarray:
    m = read_matrix_csv(path)
    if m.shape[1] != 1:
        raise CLIError(f"{path}: expected a single column, found {m.shape[1]}")
    return m[:, 0]


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _penalty_from_args(args, n: int, p: int) -> PenaltySpec:
    lam0 = args.lambda0
    if args.c is not None:
        lam0 = universal_lambda0(n, p, args.c)
    try:
        return PenaltySpec(args.penalty, args.lam, lambda0=lam0, shape=args.shape)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _load_problem(args):
    X = read_matrix_csv(args.design)
    y = read_vector_csv(args.response)
    if len(y) != X.shape[0]:
        raise CLIError(f"response length {len(y)} does not match design rows {X.shape[0]}")
    offsets = None
    if args.intercept:
        X, y, x_means, y_mean = solver.center(X, y)
        offsets = (x_means, y_mean)
    try:
        Xs, scales = standardize(X)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    return RegressionProblem(Xs, y, standardized=True), scales, offsets


def cmd_fit(args) -> int:
    prob, scales, offsets = _load_problem(args)
    n, p = prob.shape
    spec = _penalty_from_args(args, n, p)
    prob.penalty = spec
    fit = fit_combined(prob, tol=args.tol, max_iter=args.max_iter)
    cert = computable_certificate(fit, s_hat=max(fit.nnz, 1))
    beta_orig = scales * fit.beta
    _write_csv(args.out, ["index", "beta", "beta_std"],
               [[str(j), _fmt(beta_orig[j]), _fmt(fit.beta[j])] for j in range(p)])
    print(f"penalty {spec.kind} lam={_fmt(spec.lam)} lambda0={_fmt(spec.lambda0)}")
    if offsets is not None:
        x_means, y_mean = offsets
        print(f"intercept {_fmt(y_mean - x_means @ beta_orig)}")
    print(f"objective {_fmt(fit.objective)}")
    print(f"kkt_inf {_fmt(fit.kkt_inf)}")
    print(f"support {fit.nnz} of {p}: {' '.join(map(str, fit.support.tolist()))}")
    print(f"converged {int(fit.converged)} iterations {fit.iterations} "
          f"coordinatewise_global {int(fit.coordinatewise_global)}")
    print(f"certificate sparsity={int(cert.sparsity_ok)} residual={int(cert.residual_ok)} "
          f"lambda={int(cert.lambda_ok)}")
    print(f"wrote {args.out}")
    return 0 if fit.converged else 2


def cmd_score(args) -> int:
    prob, scales, _ = _load_problem(args)
    n, p = prob.shape
    spec = _penalty_from_args(args, n, p)
    fit_rows = read_matrix_csv(args.fit)
    if fit_rows.shape[0] != p or fit_rows.shape[1] < 3:
        raise CLIError(f"{args.fit}: expected {p} rows with columns index,beta,beta_std")
    beta_std = fit_rows[:, 2]
    obj = objective_value(prob.X, prob.y, beta_std, spec)
    print(f"objective {_fmt(obj)}")
    return 0


def _parse_lambdas(text: str) -> np.ndarray:
    try:
        grid = np.array([float(v) for v in text.split(",") if v.strip() != ""])
    except ValueError as exc:
        raise CLIError(f"bad --lambdas value: {exc}") from None
    if grid.size == 0:
        raise CLIError("--lambdas is empty")
    if np.any(grid <= 0.0) or (grid.size > 1 and not np.all(np.diff(grid) < 0.0)):
        raise CLIError("--lambdas must be positive and strictly decreasing")
    return grid


def cmd_path(args) -> int:
    prob, scales, _ = _load_problem(args)
    n, p = prob.shape
    spec = _penalty_from_args(args, n, p)
    prob.penalty = spec
    if args.lambdas is not None:
        grid = _parse_lambdas(args.lambdas)
    else:
        # the levels whose selection thresholds the study scans, for every kind
        lam_max = float(default_lambda_grid(prob.X, prob.y, 1)[0])
        try:
            grid = combined_lambda_grid(spec.kind, spec.shape, spec.lambda0, lam_max,
                                        args.grid_size, args.grid_ratio)
        except ValueError as exc:  # lambda0 swamps lam_max in floating point
            raise CLIError(f"cannot build the default grid ({exc}); pass --lambdas") from None
    path = solver.fit_path(prob, grid, tol=args.tol, max_iter=args.max_iter,
                           cv_folds=args.folds, cv_seed=args.seed)
    bic = bic_select(path, prob)
    sel = bic
    if args.cv:
        sel = cv_select(prob, grid, folds=args.folds, seed=args.seed,
                        tol=args.tol, max_iter=args.max_iter)
    rows = []
    for k, fit in enumerate(path.fits):
        r = prob.y - prob.X @ fit.beta
        rows.append([
            _fmt(path.lambdas[k]), str(fit.nnz),
            _fmt(np.abs(fit.beta).sum()), _fmt(np.max(np.abs(fit.beta)) if p else 0.0),
            _fmt(fit.kkt_inf), _fmt(float(r @ r)),
            _fmt(bic.criterion_values[k]), str(int(fit.converged)),
            "1" if k == sel.chosen_index else "0",
        ])
    _write_csv(args.out, ["lambda", "nnz", "l1_norm", "max_abs", "kkt_inf",
                          "rss", "bic", "converged", "selected"], rows)
    crit = "cv" if args.cv else "bic"
    print(f"path of {len(path.fits)} fits; {crit}-selected index {sel.chosen_index} "
          f"(lambda={_fmt(path.lambdas[sel.chosen_index])})")
    print(f"wrote {args.out}")
    return 0 if all(f.converged for f in path.fits) else 2


_STUDY_KEYS = {
    "n": int, "p": int, "reps": int, "seed": int, "rho": float, "sigma": float,
    "test_size": int, "grid_size": int, "cv_folds": int, "max_iter": int,
    "grid_ratio": float, "tol": float, "test_mode": str,
    "methods": str, "beta0": str, "c_grid": str,
    "threads": int, "report": str, "raw": str,
}


def parse_config(path: str) -> dict:
    """Flat key = value file with # comments; unknown keys are a hard error."""
    out = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise CLIError(f"cannot open {path}: {exc}") from None
    with fh:
        for i, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CLIError(f"{path}: line {i}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _STUDY_KEYS:
                raise CLIError(f"{path}: line {i}: unknown key {key!r}")
            caster = _STUDY_KEYS[key]
            try:
                out[key] = caster(value)
            except ValueError:
                raise CLIError(f"{path}: line {i}: bad value for {key}: {value!r}") from None
    return out


def _config_to_simconfig(conf: dict) -> SimConfig:
    kwargs = {}
    for key in ("n", "p", "reps", "seed", "rho", "sigma", "test_mode", "test_size",
                "grid_size", "grid_ratio", "cv_folds", "tol", "max_iter"):
        if key in conf:
            kwargs[key] = conf[key]
    for key in ("n", "p", "reps", "seed"):
        if key not in kwargs:
            raise CLIError(f"config is missing required key {key!r}")
    if "methods" in conf:
        kwargs["methods"] = tuple(m.strip() for m in conf["methods"].split(",") if m.strip())
    if "beta0" in conf:
        kwargs["beta0"] = np.array([float(v) for v in conf["beta0"].split(",")])
    if "c_grid" in conf:
        kwargs["c_grid"] = tuple(float(v) for v in conf["c_grid"].split(","))
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def cmd_study(args) -> int:
    conf = parse_config(args.config)
    if args.seed is not None:
        conf["seed"] = args.seed
    cfg = _config_to_simconfig(conf)
    threads = args.threads if args.threads is not None else conf.get("threads")
    report = run_study(cfg, threads=threads if threads else 1)
    report_path = args.report or conf.get("report", "report.csv")
    raw_path = args.raw or conf.get("raw", "raw.csv")
    write_report_csv(report, report_path)
    write_raw_csv(report, raw_path)
    print(format_study_table(report))
    print(f"wrote {report_path} and {raw_path}")
    return 0


def cmd_audit(args) -> int:
    X = read_matrix_csv(args.design)
    if args.s < 1:
        raise CLIError("--s must be at least 1")
    se = sparse_eigenvalue(X, min(2 * args.s, X.shape[1]), budget=args.budget,
                           samples=args.samples, seed=args.seed)
    re = restricted_eigenvalue_estimate(X, args.s, samples=args.samples, seed=args.seed)
    gram = X.T @ X / X.shape[0]
    phi_max = float(np.linalg.eigvalsh(gram)[-1])
    rows = [
        [f"kappa0_k{min(2 * args.s, X.shape[1])}", _fmt(se.value), se.method, str(se.evaluated)],
        [f"re_estimate_s{args.s}", _fmt(re), "sampled", str(args.samples)],
        ["phi_max", _fmt(phi_max), "exact", "1"],
    ]
    for rho in (0.25, 0.5, 0.75):
        rows.append([f"equicorr_infnorm_rho{rho}", _fmt(equicorr_gram_infnorm(args.s, rho)),
                     "closed_form", "1"])
    _write_csv(args.out, ["quantity", "value", "method", "evaluated"], rows)
    for row in rows:
        print(" ".join(row))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="l1concave",
        description="Sparse regression with combined L1 and concave penalties.",
        epilog="Exit codes: 0 success, 1 input/config error, 2 nonconvergence.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, response=True):
        sp.add_argument("design", help="design matrix CSV (header row required)")
        if response:
            sp.add_argument("response", help="response CSV, single column")

    def add_penalty(sp):
        sp.add_argument("--penalty", choices=KINDS, default="hard")
        sp.add_argument("--lambda", dest="lam", type=float, default=0.1,
                        help="concave-component level")
        sp.add_argument("--lambda0", type=float, default=0.0, help="L1-component level")
        sp.add_argument("--c", type=float, default=None,
                        help="set lambda0 = c sqrt(log(max(n,p))/n) instead of --lambda0")
        sp.add_argument("--shape", type=float, default=None,
                        help="shape parameter a (scad/mcp/sica)")
        sp.add_argument("--tol", type=float, default=1e-7)
        sp.add_argument("--max-iter", type=int, default=1000)
        sp.add_argument("--intercept", action="store_true",
                        help="center y and the columns of X before standardizing")

    sp = sub.add_parser("fit", help="fit one problem and write coefficients")
    add_common(sp)
    add_penalty(sp)
    sp.add_argument("--out", default="fit.csv")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("score", help="recompute the objective of a written fit")
    add_common(sp)
    add_penalty(sp)
    sp.add_argument("--fit", required=True, help="fit CSV written by the fit command")
    sp.set_defaults(func=cmd_score)

    sp = sub.add_parser("path", help="trace a decreasing level grid")
    add_common(sp)
    add_penalty(sp)
    sp.add_argument("--grid-size", type=int, default=50)
    sp.add_argument("--grid-ratio", type=float, default=0.05,
                    help="grid floor as a fraction of lambda_max")
    sp.add_argument("--lambdas", default=None,
                    help="explicit comma-separated strictly decreasing grid")
    sp.add_argument("--cv", action="store_true",
                    help="mark the cross-validation-selected row instead of the BIC one")
    sp.add_argument("--folds", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="path.csv")
    sp.set_defaults(func=cmd_path)

    sp = sub.add_parser("study", help="run the Monte-Carlo study from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--threads", type=int, default=None,
                    help="worker processes (default: config value or all cores)")
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--report", default=None, help="aggregate CSV path")
    sp.add_argument("--raw", default=None, help="per-replicate CSV path")
    sp.set_defaults(func=cmd_study)

    sp = sub.add_parser("audit", help="design-condition diagnostics")
    add_common(sp, response=False)
    sp.add_argument("--s", type=int, required=True, help="assumed true model size")
    sp.add_argument("--budget", type=int, default=50_000,
                    help="max support enumerations before sampling")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="audit.csv")
    sp.set_defaults(func=cmd_audit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
