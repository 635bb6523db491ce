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

import contextlib
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .metrics import (_prediction_error, ar1_covariance, false_signs, fp_fn, lq_loss,
                      noise_event_check)
from .penalty import PenaltySpec
from .scalar_prox import level_for_threshold
from .solver import (RegressionProblem, _check_settings, computable_certificate,
                     default_lambda_grid, fit_path, level_grid, refit_ls, standardize,
                     universal_lambda0)
from .tuning import bic_select, cv_select  # noqa: F401 (perfbench's selftest traces it)

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
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    grid_size: int = 50
    grid_ratio: float = 0.05
    tol: float = 1e-7
    max_iter: int = 1000

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and nonnegative")
        if self.beta0 is None:
            self.beta0 = study_beta0(self.p)
        self.beta0 = np.asarray(self.beta0, dtype=float).ravel()
        if self.beta0.size != self.p or not np.all(np.isfinite(self.beta0)):
            raise ValueError("beta0 must have length p and finite entries")
        self.methods = tuple(self.methods)
        if not self.methods:
            raise ValueError("methods list is empty")
        for k, m in enumerate(self.methods):
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {KNOWN_METHODS}")
            if m in self.methods[:k]:
                raise ValueError(f"methods list names {m!r} twice")
        self.c_grid = tuple(self.c_grid)
        if not self.c_grid or not all(0.0 <= c < math.inf for c in self.c_grid):
            raise ValueError("c_grid must be a nonempty list of finite nonnegative constants")
        if self.grid_size < 1:
            raise ValueError("grid_size must be at least 1")
        if not 0.0 < self.grid_ratio < 1.0:
            raise ValueError("grid_ratio must lie in (0, 1)")
        _check_settings(self.tol, self.max_iter)


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


def combined_lambda_grid(spec: PenaltySpec, lasso_grid) -> np.ndarray:
    """Levels of spec's kind whose zero thresholds are spec.lambda0 + lasso_grid.

    The lasso grid passes through level_grid; spec.lam plays no part. For
    l1/hard/scad/mcp the levels are the lasso grid itself (exactly so at
    lambda0 = 0); for sica they are mapped through the entry-threshold
    inverse, so every kind scans the same selection thresholds."""
    taus = spec.lambda0 + level_grid(lasso_grid)
    lams = np.array([level_for_threshold(spec, t) for t in taus])
    keep = np.concatenate([[True], np.diff(lams) < 0.0])
    return lams[keep]


def _row(cfg, r, method, beta_orig, Sigma0, fit=None, lam0=math.nan, c=math.nan,
         cert=None, noise_event=False) -> dict:
    fp, fn = fp_fn(beta_orig, cfg.beta0)
    return {
        "replicate": r,
        "method": method,
        "pe": _prediction_error(beta_orig - cfg.beta0, cfg.sigma, Sigma0),
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
    # positive definite at every rho SimConfig accepts: the rows' PE skips the check
    Sigma0 = ar1_covariance(cfg.p, cfg.rho)
    s_true = int(np.count_nonzero(cfg.beta0))

    # the concentration event is recorded at the reference level c = 2 sigma;
    # there the union bound P(event) >= 1 - p erfc(sqrt(log max(n, p) / 2)) is
    # vacuous (-3.27 at n=80, p=200), so a study frequency near 0.07 is expected
    lam0_ref = universal_lambda0(cfg.n, cfg.p, 2.0 * cfg.sigma)
    event = noise_event_check(X, eps, lam0_ref)

    Xs, scales = standardize(X)
    prob = RegressionProblem(Xs, y)
    lasso_grid = default_lambda_grid(Xs, y, cfg.grid_size, cfg.grid_ratio)

    def bic_fit(spec):
        """The BIC choice on the path over spec's levels, and its BIC. The path starts
        from zero, an exact fit where the zero threshold is spec.lambda0 + lambda_max."""
        path = fit_path(prob, spec, combined_lambda_grid(spec, lasso_grid), tol=cfg.tol,
                        max_iter=cfg.max_iter)
        sel = bic_select(path, prob)
        return path.fits[sel.chosen_index], float(sel.criterion_values[sel.chosen_index])

    rows = []
    for method in cfg.methods:
        if method == "oracle":
            beta = refit_ls(RegressionProblem(X, y), np.flatnonzero(cfg.beta0))
            rows.append(_row(cfg, r, method, beta, Sigma0, noise_event=event))
        elif method == "lasso":
            fit, _ = bic_fit(PenaltySpec("l1", 0.0))
            rows.append(_row(cfg, r, method, scales * fit.beta, Sigma0, fit=fit,
                             noise_event=event))
        else:
            best = None
            for c in cfg.c_grid:
                lam0 = universal_lambda0(cfg.n, cfg.p, c)
                fit, val = bic_fit(PenaltySpec(METHOD_KINDS[method], 0.0, lambda0=lam0))
                if best is None or val < best[0]:
                    best = (val, fit, c)
            _, fit, c = best
            cert = computable_certificate(fit, s_true)
            rows.append(_row(cfg, r, method, scales * fit.beta, Sigma0, fit=fit,
                             lam0=fit.penalty.lambda0, c=c, cert=cert, noise_event=event))
    return rows


def _worker(args) -> list[dict]:
    return _replicate_rows(*args)


# thread-count (setter, getter) pairs of the OpenBLAS builds numpy ships or links
# against. The study pool's caller runs one OpenBLAS thread while the pool forks,
# so each worker inherits one and makes no OpenBLAS call: a setter called in a
# fresh worker restarts OpenBLAS's thread pool there, whose extra thread spins
# against the other workers for the cores they already keep busy
_OPENBLAS_THREAD_FUNCTIONS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_threads():
    """The thread-count (setter, getter) of an OpenBLAS this process has
    loaded, found in one scan of /proc/self/maps, or None (no /proc, MKL,
    Accelerate)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({f[5].strip() for f in (line.split(maxsplit=5) for line in fh)
                            if len(f) == 6 and "openblas" in f[5].lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_THREAD_FUNCTIONS:
        for lib in libs:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = (ctypes.c_int,), None
                getter.argtypes, getter.restype = (), ctypes.c_int
                return setter, getter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body at one OpenBLAS thread and give the caller its own count
    back afterwards, also when the body raises; yield whether OpenBLAS was
    found."""
    blas = _openblas_threads()
    if blas is None:
        yield False
        return
    setter, getter = blas
    own = getter()
    setter(1)
    try:
        yield True
    finally:
        setter(own)


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


def run_study(cfg: SimConfig, threads: int | None = 1) -> StudyReport:
    """Run the Monte-Carlo study; identical output for any thread count.

    `threads` worker processes (None: all cores) share the replicates; with
    one thread or one replicate they run in the calling process. Raises
    ValueError when threads < 1. Where OpenBLAS is found, the study runs at
    one OpenBLAS thread, so no threaded call wakes threads that then spin,
    and the caller gets its own count back, also when a replicate raises.
    Pool workers are forked and inherit that one thread. Restoring the count
    after a pool restarts OpenBLAS's thread pool in the caller, whose new
    thread then spins for about 0.13 s of CPU.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    with _one_blas_thread() as found:
        if threads == 1 or cfg.reps == 1:
            per_rep = [_replicate_rows(cfg, r) for r in range(cfg.reps)]
        else:
            # fork explicitly: a start method that re-imports (spawn, forkserver)
            # would give each worker OpenBLAS's default count instead
            context = multiprocessing.get_context("fork") if found else None
            with ProcessPoolExecutor(max_workers=min(threads, cfg.reps),
                                     mp_context=context) as pool:
                per_rep = list(pool.map(_worker, [(cfg, r) for r in range(cfg.reps)]))
    rows = [row for rep in per_rep for row in rep]
    means, ses = aggregate(rows, cfg.methods)
    freq = float(np.mean([rep[0]["noise_event"] for rep in per_rep]))
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


def _write_csv(path: str, header, rows):
    """Comma-joined header and rows of already formatted cells, one line each."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_raw_csv(report: StudyReport, path: str):
    """One row per replicate x method; column names are RAW_COLUMNS."""
    _write_csv(path, RAW_COLUMNS, ([_fmt(row[c]) for c in RAW_COLUMNS] for row in report.rows))


def write_report_csv(report: StudyReport, path: str):
    """Aggregate CSV: method, metric, mean, se plus the noise event frequency."""
    rows = [[m, metric, _fmt(report.means[(m, metric)]), _fmt(report.ses[(m, metric)])]
            for m in report.config.methods for metric in METRIC_NAMES]
    rows.append(["all", "noise_event_frequency", _fmt(report.noise_event_frequency), "nan"])
    _write_csv(path, ("method", "metric", "mean", "se"), rows)


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
