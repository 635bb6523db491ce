"""Path-following cyclic coordinate descent for combined L1 + concave penalties.

The working objective over a standardized design (every column with L2-norm
sqrt(n)) is

    (2n)^-1 ||y - X b||^2 + lambda0 ||b||_1 + sum_j p(|b_j|).

Each coordinate update is the exact global minimizer of its univariate
subproblem, so the objective never increases; a violation of that
monotonicity is treated as an internal error. Sweeps run in fixed ascending
coordinate order. A screening pass (one matvec plus the exact zero-entry
threshold of the scalar prox) restricts work to an active set between full
sweeps; convergence is only declared after a genuine full sweep over all
coordinates changes no coefficient by tol or more, and a final no-update
sweep certifies coordinatewise global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .penalty import PenaltySpec, penalty_value

_NORM_RTOL = 1e-8  # allowed relative deviation of column norms from sqrt(n)

# computable-solution premises: ||b||_0 <= CERT_SPARSITY * s_hat,
# ||n^-1 X'(y - Xb)||_inf <= CERT_RESIDUAL * lambda0 and lam >= CERT_LEVEL * lambda0;
# the theory only fixes the O(lambda0) order of the residual bound
CERT_SPARSITY = 3.0
CERT_RESIDUAL = 4.0
CERT_LEVEL = 1.0


class DegenerateColumnError(ValueError):
    """A design column has zero norm and cannot be standardized."""


@dataclass
class RegressionProblem:
    """Design, response, and penalty configuration for one fit.

    standardized=True asserts that every column of X has L2-norm sqrt(n)
    up to relative tolerance 1e-8; the solvers require this so that all
    coordinates share unit curvature.
    """

    X: np.ndarray
    y: np.ndarray
    penalty: PenaltySpec | None = None
    standardized: bool = False

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("X must have at least one row and one column")
        if len(self.y) != n:
            raise ValueError(f"length of y ({len(self.y)}) does not match rows of X ({n})")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError("X and y must be finite")
        if self.standardized:
            norms = np.sqrt((self.X**2).sum(axis=0))
            dev = np.abs(norms - math.sqrt(n))
            j = int(np.argmax(dev))
            if dev[j] > _NORM_RTOL * math.sqrt(n):
                raise ValueError(
                    f"column {j} has norm {norms[j]:.6g}, not sqrt(n)={math.sqrt(n):.6g}; "
                    "run standardize() first"
                )

    @property
    def shape(self) -> tuple[int, int]:
        return self.X.shape


@dataclass
class FitResult:
    """One solver run: coefficients plus convergence and certificate record."""

    beta: np.ndarray
    support: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_inf: float
    coordinatewise_global: bool
    penalty: PenaltySpec
    sweep_objectives: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        return int(self.support.size)


@dataclass
class PathResult:
    """Fits along a strictly decreasing concave-level grid, warm-started."""

    lambdas: np.ndarray
    fits: list[FitResult]
    lambda0: float


@dataclass
class CertificateReport:
    """Computable-solution certificate: sparsity, residual correlation, lambda floor."""

    sparsity_ok: bool
    residual_ok: bool
    lambda_ok: bool
    nnz: int
    kkt_inf: float
    sparsity_bound: float
    residual_bound: float
    lambda_floor: float

    @property
    def passes(self) -> bool:
        return self.sparsity_ok and self.residual_ok and self.lambda_ok


def center(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Center y and the columns of X, for models with an intercept.

    Returns (X_centered, y_centered, column_means, y_mean). After fitting
    coefficients b on the centered data, the intercept is
    y_mean - column_means @ b.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_means = X.mean(axis=0)
    y_mean = float(y.mean())
    return X - x_means, y - y_mean, x_means, y_mean


def standardize(X) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every column of X to L2-norm sqrt(n).

    Returns (X_std, scales) with X_std[:, j] = scales[j] * X[:, j]. A
    coefficient vector b fitted on X_std corresponds to scales * b on the
    original design. Idempotent. Raises DegenerateColumnError naming the
    first zero-norm column.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    norms = np.sqrt((X**2).sum(axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(f"column {int(zero[0])} has zero norm")
    scales = math.sqrt(n) / norms
    return X * scales, scales


def universal_lambda0(n: int, p: int, c: float) -> float:
    """c * sqrt(log(max(n, p)) / n), the universal L1 level.

    The dimension enters as max(n, p), the convention used in all bounds.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if c < 0:
        raise ValueError("c must be nonnegative")
    return c * math.sqrt(math.log(max(n, p)) / n)


def default_lambda_grid(X, y, num: int = 50, ratio: float = 0.01) -> np.ndarray:
    """Geometric grid from lambda_max = ||n^-1 X'y||_inf down to ratio * lambda_max."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    lam_max = float(np.max(np.abs(X.T @ y)) / X.shape[0])
    if lam_max <= 0.0:
        lam_max = 1.0
    return np.geomspace(lam_max, ratio * lam_max, num)


def objective_value(X, y, beta, p: PenaltySpec) -> float:
    """The penalized least-squares objective recomputed from scratch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    r = y - X @ beta
    return float(r @ r) / (2.0 * X.shape[0]) + _penalty_sum(beta, p)


def _penalty_sum(beta, p: PenaltySpec) -> float:
    ab = np.abs(beta)
    return float(p.lambda0 * ab.sum() + np.sum(penalty_value(p, ab)))


def _cd_fit(X, y, penalty: PenaltySpec, init, tol, max_iter, record):
    """Shared coordinate-descent engine. X must be standardized."""
    from .scalar_prox import make_prox, zero_threshold

    n, p = X.shape
    Xf = np.asfortranarray(X)
    beta = np.zeros(p) if init is None else np.array(init, dtype=float).ravel().copy()
    if beta.size != p:
        raise ValueError("init has wrong length")
    prox = make_prox(penalty)
    zthr = zero_threshold(penalty)

    col_dev = float(np.max(np.abs((X**2).sum(axis=0) / n - 1.0)))
    r = y - Xf @ beta
    prev_obj = float(r @ r) / (2.0 * n) + _penalty_sum(beta, penalty)
    objs = [prev_obj] if record else None

    def sweep(idx) -> float:
        nonlocal r
        delta = 0.0
        for j in idx:
            bj = beta[j]
            xj = Xf[:, j]
            nb = prox(float(xj @ r) / n + bj)
            if nb != bj:
                r += xj * (bj - nb)
                beta[j] = nb
                d = abs(nb - bj)
                if d > delta:
                    delta = d
        return delta

    def check_objective():
        nonlocal prev_obj
        obj = float(r @ r) / (2.0 * n) + _penalty_sum(beta, penalty)
        slack = 1e-12 * max(1.0, abs(prev_obj)) + 4.0 * col_dev * (1.0 + float(beta @ beta))
        if obj > prev_obj + slack:
            raise RuntimeError(
                f"objective increased across a sweep ({prev_obj!r} -> {obj!r}); "
                "this indicates a prox bug"
            )
        prev_obj = obj
        if record:
            objs.append(obj)

    sweeps = 0
    converged = False
    all_idx = range(p)
    while sweeps < max_iter:
        z = Xf.T @ r / n + beta
        active = np.flatnonzero((beta != 0.0) | (np.abs(z) > zthr))
        while active.size and sweeps < max_iter:
            sweeps += 1
            delta = sweep(active)
            check_objective()
            if delta < tol:
                break
        if sweeps >= max_iter:
            break
        sweeps += 1
        delta = sweep(all_idx)
        check_objective()
        if delta < tol:
            converged = True
            break

    # recompute the certificate quantities from scratch
    r = y - Xf @ beta
    grad = Xf.T @ r / n
    kkt_inf = float(np.max(np.abs(grad))) if p else 0.0
    objective = float(r @ r) / (2.0 * n) + _penalty_sum(beta, penalty)
    cw_dev = max((abs(prox(float(grad[j]) + beta[j]) - beta[j]) for j in range(p)), default=0.0)
    return FitResult(
        beta=beta,
        support=np.flatnonzero(beta),
        objective=objective,
        iterations=sweeps,
        converged=converged,
        kkt_inf=kkt_inf,
        coordinatewise_global=bool(converged and cw_dev < 10.0 * tol),
        penalty=penalty,
        sweep_objectives=np.asarray(objs) if record else None,
    )


def _require_standardized(prob: RegressionProblem):
    if not prob.standardized:
        raise ValueError("solver requires a standardized problem (columns with norm sqrt(n))")


def fit_lasso(prob: RegressionProblem, lam: float, tol: float = 1e-7,
              max_iter: int = 1000, init=None) -> FitResult:
    """Cyclic coordinate descent with soft thresholding at level lam."""
    _require_standardized(prob)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    spec = PenaltySpec("l1", 0.0, lambda0=float(lam))
    return _cd_fit(prob.X, prob.y, spec, init, tol, max_iter, False)


def fit_combined(prob: RegressionProblem, init=None, tol: float = 1e-7,
                 max_iter: int = 1000, record_objectives: bool = False) -> FitResult:
    """Cyclic coordinate descent where every update is the exact scalar global
    minimizer for the combined penalty in prob.penalty."""
    _require_standardized(prob)
    if prob.penalty is None:
        raise ValueError("prob.penalty is required")
    return _cd_fit(prob.X, prob.y, prob.penalty, init, tol, max_iter, record_objectives)


def fit_path(prob: RegressionProblem, lambda_grid, tol: float = 1e-7, max_iter: int = 1000,
             init=None, cv_folds: int = 10, cv_seed: int = 0) -> PathResult:
    """Warm-started fits along a strictly decreasing concave-level grid.

    Every fit uses prob.penalty with its level lam replaced by the grid
    value; lambda0 and the shape come from prob.penalty. The first fit
    starts from init, or when init is None from the lasso at the K-fold
    cross-validated level (cross-validation runs at the same tol and
    max_iter). Per-fit nonconvergence is recorded in the fit flags; the
    path never aborts.
    """
    _require_standardized(prob)
    if prob.penalty is None:
        raise ValueError("prob.penalty is required")
    grid = np.asarray(lambda_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("lambda_grid is empty")
    if np.any(grid <= 0.0):
        raise ValueError("lambda_grid must be positive")
    if grid.size > 1 and not np.all(np.diff(grid) < 0.0):
        raise ValueError("lambda_grid must be strictly decreasing")

    if init is None:
        from .tuning import cv_select

        cv_grid = default_lambda_grid(prob.X, prob.y)
        sel = cv_select(replace(prob, penalty=PenaltySpec("l1", 0.0, 0.0)), cv_grid,
                        folds=cv_folds, seed=cv_seed, tol=tol, max_iter=max_iter)
        init = fit_lasso(prob, float(cv_grid[sel.chosen_index]), tol=tol, max_iter=max_iter).beta

    fits: list[FitResult] = []
    beta = np.asarray(init, dtype=float)
    for lam in grid:
        fit = _cd_fit(prob.X, prob.y, replace(prob.penalty, lam=float(lam)), beta, tol,
                      max_iter, False)
        fits.append(fit)
        beta = fit.beta
    return PathResult(lambdas=grid, fits=fits, lambda0=prob.penalty.lambda0)


def computable_certificate(fit: FitResult, s_hat: int) -> CertificateReport:
    """Check the computable-solution premises on a finished fit, at the fit's
    own lambda0 and the module constants CERT_SPARSITY, CERT_RESIDUAL and
    CERT_LEVEL."""
    l0 = fit.penalty.lambda0
    sparsity, residual, floor = CERT_SPARSITY * s_hat, CERT_RESIDUAL * l0, CERT_LEVEL * l0
    return CertificateReport(
        sparsity_ok=fit.nnz <= sparsity,
        residual_ok=fit.kkt_inf <= residual,
        lambda_ok=fit.penalty.lam >= floor,
        nnz=fit.nnz,
        kkt_inf=fit.kkt_inf,
        sparsity_bound=sparsity,
        residual_bound=residual,
        lambda_floor=floor,
    )


def refit_ls(prob: RegressionProblem, support) -> np.ndarray:
    """Least squares on the support columns, zeros elsewhere.

    With the true support this is the oracle estimator. Raises if the
    support is larger than n or the submatrix is rank deficient (the error
    names its condition number).
    """
    support = np.asarray(support, dtype=int).ravel()
    p = prob.X.shape[1]
    beta = np.zeros(p)
    if support.size == 0:
        return beta
    if np.unique(support).size != support.size:
        raise ValueError("support contains duplicate indices")
    if support.min() < 0 or support.max() >= p:
        raise ValueError("support index out of range")
    if support.size > prob.X.shape[0]:
        raise ValueError("support larger than the sample size")
    Xs = prob.X[:, support]
    sv = np.linalg.svd(Xs, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-10:
        cond = math.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise ValueError(f"support submatrix is rank deficient (condition number {cond:.3e})")
    coef, *_ = np.linalg.lstsq(Xs, prob.y, rcond=None)
    beta[support] = coef
    return beta
