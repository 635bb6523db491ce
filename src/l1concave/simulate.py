"""Data generation and the Monte-Carlo study runner.

Replicates draw an AR(1) Gaussian design and Gaussian noise, fit each
configured method (lasso path + BIC; combined penalties with the L1 level
constant c tuned jointly with the concave level by BIC; oracle refit on the
true support), and aggregate prediction/estimation/selection metrics into
means and standard errors. Every replicate derives its own seeds from
(config seed, replicate index), so results are independent of execution
order and the number of worker processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .metrics import (ar1_covariance, false_signs, fp_fn, lq_loss,
                      noise_event_check, prediction_error, prediction_error_sampled)
from .penalty import PenaltySpec
from .scalar_prox import level_for_threshold
from .solver import (RegressionProblem, default_lambda_grid, fit_lasso, fit_path,
                     refit_ls, standardize, computable_certificate, universal_lambda0)
from .tuning import bic_select, cv_select

STUDY_BETA = (1.0, -0.5, 0.7, -1.2, -0.9, 0.3, 0.55)

DEFAULT_METHODS = ("lasso", "l1_scad", "l1_hard", "l1_sica", "oracle")
# l1_mcp is available but off the default list; it tracks l1_scad closely
METHOD_KINDS = {"l1_scad": "scad", "l1_hard": "hard", "l1_sica": "sica", "l1_mcp": "mcp"}
KNOWN_METHODS = ("lasso", "oracle") + tuple(METHOD_KINDS)

# constants c for the L1 level lambda0 = c sqrt(log(max(n,p))/n), scanned
# jointly with the concave level by BIC; extends {0.5, 1, 2} downward since
# BIC strongly prefers (and prediction error requires) less L1 shrinkage
DEFAULT_C_GRID = (0.125, 0.25, 0.5, 1.0, 2.0)

METRIC_NAMES = ("pe", "l2", "l1", "linf", "fp", "fn", "fs")

RAW_COLUMNS = (
    "replicate", "method", "pe", "l2", "l1", "linf", "fp", "fn", "fs",
    "nnz", "lam", "lambda0", "c", "kkt_inf", "iterations", "converged",
    "coordinatewise_global", "cert_sparsity", "cert_residual", "cert_lambda",
    "noise_event",
)


def study_beta0(p: int) -> np.ndarray:
    """The simulation-study coefficient vector, zero-padded to length p."""
    if p < len(STUDY_BETA):
        raise ValueError(f"p must be at least {len(STUDY_BETA)}")
    beta = np.zeros(p)
    beta[: len(STUDY_BETA)] = STUDY_BETA
    return beta


@dataclass
class SimConfig:
    """Study configuration; a StudyReport is a pure function of one of these."""

    n: int
    p: int
    reps: int
    seed: int
    rho: float = 0.5
    sigma: float = 0.25
    beta0: np.ndarray | None = None
    methods: tuple[str, ...] = DEFAULT_METHODS
    test_mode: str = "analytic"
    test_size: int = 10_000
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    grid_size: int = 50
    grid_ratio: float = 0.05
    cv_folds: int = 10
    tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.beta0 is None:
            self.beta0 = study_beta0(self.p)
        self.beta0 = np.asarray(self.beta0, dtype=float).ravel()
        if self.beta0.size != self.p:
            raise ValueError("beta0 must have length p")
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("methods list is empty")
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {KNOWN_METHODS}")
        if self.test_mode not in ("analytic", "sampled"):
            raise ValueError("test_mode must be 'analytic' or 'sampled'")


@dataclass
class StudyReport:
    """Per-method means and standard errors plus the raw per-replicate rows."""

    config: SimConfig
    rows: list[dict]
    means: dict[tuple[str, str], float]
    ses: dict[tuple[str, str], float]
    noise_event_frequency: float


def gen_design(n: int, p: int, rho: float, seed) -> np.ndarray:
    """Rows i.i.d. N(0, Sigma0) with Sigma0 = (rho^|i-j|), via the AR(1)
    recursion x_j = rho x_{j-1} + sqrt(1 - rho^2) z_j (exact for this
    covariance). Deterministic given the seed."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    c = math.sqrt(1.0 - rho * rho)
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + c * Z[:, j]
    return X


def gen_response(X, beta0, sigma: float, seed) -> np.ndarray:
    """y = X beta0 + sigma z with standard normal z; deterministic given the seed."""
    X = np.asarray(X, dtype=float)
    beta0 = np.asarray(beta0, dtype=float).ravel()
    if beta0.size != X.shape[1]:
        raise ValueError("beta0 length does not match columns of X")
    rng = np.random.default_rng(seed)
    return X @ beta0 + sigma * rng.standard_normal(X.shape[0])


def combined_lambda_grid(kind: str, shape: float | None, lambda0: float, lam_max: float,
                         num: int = 50, ratio: float = 0.05) -> np.ndarray:
    """Concave-level grid whose selection thresholds sweep
    lambda0 + geomspace(lam_max, ratio * lam_max).

    For hard/scad/mcp this is exactly the geometric level grid; for sica the
    levels are mapped through the entry-threshold inverse so all kinds scan
    the same selection-threshold range."""
    spec = PenaltySpec(kind, 0.0, lambda0=lambda0, shape=shape)
    taus = lambda0 + np.geomspace(lam_max, ratio * lam_max, num)
    lams = np.array([level_for_threshold(spec, t) for t in taus])
    keep = np.concatenate([[True], np.diff(lams) < 0.0])
    return lams[keep]


def _pe(beta_hat, cfg: SimConfig, Sigma0, seed) -> float:
    if cfg.test_mode == "sampled":
        return prediction_error_sampled(beta_hat, cfg.beta0, cfg.sigma, Sigma0,
                                        size=cfg.test_size, seed=seed)
    return prediction_error(beta_hat, cfg.beta0, cfg.sigma, Sigma0)


def _row(cfg, r, method, beta_orig, Sigma0, pe_seed, fit=None, lam0=math.nan,
         c=math.nan, cert=None, noise_event=False) -> dict:
    fp, fn = fp_fn(beta_orig, cfg.beta0)
    return {
        "replicate": r,
        "method": method,
        "pe": _pe(beta_orig, cfg, Sigma0, pe_seed),
        "l2": lq_loss(beta_orig, cfg.beta0, 2),
        "l1": lq_loss(beta_orig, cfg.beta0, 1),
        "linf": lq_loss(beta_orig, cfg.beta0, math.inf),
        "fp": fp,
        "fn": fn,
        "fs": false_signs(beta_orig, cfg.beta0),
        "nnz": int(np.count_nonzero(beta_orig)),
        "lam": fit.penalty.lam if fit is not None else math.nan,
        "lambda0": lam0,
        "c": c,
        "kkt_inf": fit.kkt_inf if fit is not None else math.nan,
        "iterations": fit.iterations if fit is not None else 0,
        "converged": bool(fit.converged) if fit is not None else True,
        "coordinatewise_global": bool(fit.coordinatewise_global) if fit is not None else True,
        "cert_sparsity": bool(cert.sparsity_ok) if cert is not None else True,
        "cert_residual": bool(cert.residual_ok) if cert is not None else True,
        "cert_lambda": bool(cert.lambda_ok) if cert is not None else True,
        "noise_event": bool(noise_event),
    }


def _replicate_rows(cfg: SimConfig, r: int) -> list[dict]:
    X = gen_design(cfg.n, cfg.p, cfg.rho, np.random.SeedSequence((cfg.seed, r, 0)))
    y = gen_response(X, cfg.beta0, cfg.sigma, np.random.SeedSequence((cfg.seed, r, 1)))
    eps = y - X @ cfg.beta0
    Sigma0 = ar1_covariance(cfg.p, cfg.rho)
    s_true = int(np.count_nonzero(cfg.beta0))
    pe_seed = np.random.SeedSequence((cfg.seed, r, 3))

    # the concentration event is recorded at the reference level c = 2 sigma;
    # there the union bound P(event) >= 1 - p erfc(sqrt(log max(n, p) / 2)) is
    # vacuous (-3.27 at n=80, p=200), so a study frequency near 0.07 is expected
    lam0_ref = universal_lambda0(cfg.n, cfg.p, 2.0 * cfg.sigma)
    event = noise_event_check(X, eps, lam0_ref)

    Xs, scales = standardize(X)
    prob = RegressionProblem(Xs, y, standardized=True)
    lam_max = float(np.max(np.abs(Xs.T @ y)) / cfg.n)
    lasso_grid = default_lambda_grid(Xs, y, cfg.grid_size, cfg.grid_ratio)

    init = None
    if any(m != "oracle" for m in cfg.methods):
        cv_grid = default_lambda_grid(Xs, y, max(10, cfg.grid_size * 3 // 5), cfg.grid_ratio)
        sel = cv_select(replace(prob, penalty=PenaltySpec("l1", 0.0, 0.0)), cv_grid,
                        folds=cfg.cv_folds, seed=np.random.SeedSequence((cfg.seed, r, 2)),
                        tol=cfg.tol, max_iter=cfg.max_iter)
        init = fit_lasso(prob, float(cv_grid[sel.chosen_index]),
                         tol=cfg.tol, max_iter=cfg.max_iter).beta

    rows = []
    for method in cfg.methods:
        if method == "oracle":
            beta = refit_ls(RegressionProblem(X, y), np.flatnonzero(cfg.beta0))
            rows.append(_row(cfg, r, method, beta, Sigma0, pe_seed, noise_event=event))
        elif method == "lasso":
            path = fit_path(replace(prob, penalty=PenaltySpec("l1", 0.0, 0.0)),
                            lasso_grid, tol=cfg.tol, max_iter=cfg.max_iter, init=init)
            sel = bic_select(path, prob)
            fit = path.fits[sel.chosen_index]
            rows.append(_row(cfg, r, method, scales * fit.beta, Sigma0, pe_seed, fit=fit,
                             noise_event=event))
        else:
            kind = METHOD_KINDS[method]
            best = None
            for c in cfg.c_grid:
                lam0 = universal_lambda0(cfg.n, cfg.p, c)
                grid = combined_lambda_grid(kind, None, lam0, lam_max,
                                            cfg.grid_size, cfg.grid_ratio)
                path = fit_path(replace(prob, penalty=PenaltySpec(kind, grid[0], lambda0=lam0)),
                                grid, tol=cfg.tol, max_iter=cfg.max_iter, init=init)
                sel = bic_select(path, prob)
                val = float(sel.criterion_values[sel.chosen_index])
                if best is None or val < best[0]:
                    best = (val, path.fits[sel.chosen_index], lam0, c)
            _, fit, lam0, c = best
            cert = computable_certificate(fit, s_true)
            rows.append(_row(cfg, r, method, scales * fit.beta, Sigma0, pe_seed, fit=fit,
                             lam0=lam0, c=c, cert=cert, noise_event=event))
    return rows


def _worker(args) -> list[dict]:
    return _replicate_rows(*args)


def aggregate(rows: list[dict], methods) -> tuple[dict, dict]:
    """Means and standard errors (sample SD / sqrt(reps)) per method and metric."""
    means, ses = {}, {}
    for m in methods:
        sub = [row for row in rows if row["method"] == m]
        for metric in METRIC_NAMES:
            vals = np.array([row[metric] for row in sub], dtype=float)
            means[(m, metric)] = float(vals.mean())
            ses[(m, metric)] = (float(vals.std(ddof=1) / math.sqrt(len(vals)))
                                if len(vals) > 1 else math.nan)
    return means, ses


def run_study(cfg: SimConfig, threads: int = 1) -> StudyReport:
    """Run the Monte-Carlo study; identical output for any thread count."""
    if threads is None or threads < 1:
        threads = os.cpu_count() or 1
    if threads == 1 or cfg.reps == 1:
        per_rep = [_replicate_rows(cfg, r) for r in range(cfg.reps)]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, cfg.reps)) as pool:
            per_rep = list(pool.map(_worker, [(cfg, r) for r in range(cfg.reps)]))
    rows = [row for rep in per_rep for row in rep]
    means, ses = aggregate(rows, cfg.methods)
    seen = {}
    for row in rows:
        seen.setdefault(row["replicate"], bool(row["noise_event"]))
    freq = float(np.mean([v for v in seen.values()])) if seen else math.nan
    return StudyReport(config=cfg, rows=rows, means=means, ses=ses,
                       noise_event_frequency=freq)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def write_raw_csv(report: StudyReport, path: str):
    """One row per replicate x method; column names are RAW_COLUMNS."""
    lines = [",".join(RAW_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_fmt(row[c]) for c in RAW_COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_csv(report: StudyReport, path: str):
    """Aggregate CSV: method, metric, mean, se plus the noise event frequency."""
    lines = ["method,metric,mean,se"]
    for m in report.config.methods:
        for metric in METRIC_NAMES:
            lines.append(f"{m},{metric},{_fmt(report.means[(m, metric)])},"
                         f"{_fmt(report.ses[(m, metric)])}")
    lines.append(f"all,noise_event_frequency,{_fmt(report.noise_event_frequency)},nan")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def format_study_table(report: StudyReport) -> str:
    """Text table shaped like the simulation-study summary: one row per
    measure, one column per method, entries mean (se)."""
    methods = report.config.methods
    labels = {"pe": "PE", "l2": "L2-loss", "l1": "L1-loss", "linf": "Linf-loss",
              "fp": "FP", "fn": "FN", "fs": "FS"}
    width = 18
    head = "measure".ljust(10) + "".join(m.ljust(width) for m in methods)
    out = [head, "-" * len(head)]
    for metric in METRIC_NAMES:
        cells = []
        for m in methods:
            mu = report.means[(m, metric)]
            se = report.ses[(m, metric)]
            se_txt = "-" if math.isnan(se) else f"{se:.3f}"
            cells.append(f"{mu:.3f} ({se_txt})".ljust(width))
        out.append(labels[metric].ljust(10) + "".join(cells))
    out.append(f"noise event frequency (c = 2 sigma): {report.noise_event_frequency:.3f}")
    return "\n".join(out)
