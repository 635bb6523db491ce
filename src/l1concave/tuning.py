"""Tuning-parameter selection along a path: BIC and K-fold cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .penalty import PenaltySpec
from .solver import (DegenerateColumnError, PathResult, RegressionProblem, fit_path,
                     lasso_homotopy, level_grid, standardize)

_RSS_FLOOR = 1e-300


@dataclass
class SelectionResult:
    """Chosen path index plus the criterion trace.

    chosen_index minimizes criterion_values; exact ties resolve to the
    earliest index, i.e. the largest lambda and the sparser fit. For CV,
    cd_levels counts the fold levels fitted by coordinate descent and
    nonconverged the fold fits among them that stopped at max_iter.
    """

    chosen_index: int
    criterion_values: np.ndarray
    fold_warnings: int = 0
    cd_levels: int = 0
    nonconverged: int = 0


def bic_select(path: PathResult, prob: RegressionProblem) -> SelectionResult:
    """Pick the path point minimizing BIC(k) = n log(RSS_k / n) + ||b_k||_0 log n,
    with RSS_k the fit's own rss on prob; ties go to the larger lambda. RSS/n
    is floored at 1e-300, so an interpolating fit gets a finite criterion.
    """
    if not path.fits:
        raise ValueError("path is empty")
    n = len(prob.y)
    vals = np.empty(len(path.fits))
    for k, fit in enumerate(path.fits):
        vals[k] = n * math.log(max(fit.rss / n, _RSS_FLOOR)) + fit.nnz * math.log(n)
    return SelectionResult(chosen_index=int(np.argmin(vals)), criterion_values=vals)


def fold_assignment(n: int, folds: int, seed: int) -> np.ndarray:
    """Deterministic fold id per sample index from a seeded permutation."""
    rng = np.random.default_rng(seed)
    return rng.permutation(n) % folds


def cv_select(prob: RegressionProblem, spec: PenaltySpec, lambda_grid, folds: int, *,
              seed: int = 0, tol: float = 1e-7, max_iter: int = 1000) -> SelectionResult:
    """K-fold cross-validation of spec over its concave-level grid.

    Each fold's training rows are re-standardized, fitted along the grid
    (fit_path's levels, with lambda0 and the shape from spec) and scored on
    the held-out rows in the original column scale; the criterion per grid
    point is the mean held-out squared error pooled over folds. An l1
    spec's fold levels lambda0 + grid, when strictly decreasing, come from
    lasso_homotopy, exact and certified; the levels it cannot certify, and
    every level otherwise, come from fit_path, warm-started from the last
    certified fit or from zero. The folds are fold_assignment(n, folds,
    seed), each fold's rows taken in input order. Folds whose training design
    has a zero column are skipped and counted in fold_warnings.
    """
    grid = level_grid(lambda_grid)
    n = len(prob.y)
    if not 2 <= folds <= n:
        raise ValueError(f"folds must lie in [2, n] = [2, {n}], got {folds}")
    assignment = fold_assignment(n, folds, seed)  # every fold is a nonempty proper subset
    levels = spec.lambda0 + grid
    homotopy = spec.kind == "l1" and np.all(np.diff(levels) < 0.0)
    sq_err = np.zeros(grid.size)
    n_scored = 0
    warnings = cd_levels = nonconverged = 0
    for f in range(folds):
        te = assignment == f
        try:
            Xtr_s, scales = standardize(prob.X[~te])
        except DegenerateColumnError:
            warnings += 1
            continue
        train, Xte, yte = RegressionProblem(Xtr_s, prob.y[~te]), prob.X[te], prob.y[te]
        betas = lasso_homotopy(train, levels, tol=tol, max_iter=max_iter) if homotopy else []
        if len(betas) < grid.size:
            path = fit_path(train, spec, grid[len(betas):], init=betas[-1] if betas else None,
                            tol=tol, max_iter=max_iter)
            betas += [fit.beta for fit in path.fits]
            cd_levels += len(path.fits)
            nonconverged += sum(not fit.converged for fit in path.fits)
        for k, beta in enumerate(betas):
            resid = yte - Xte @ (scales * beta)
            sq_err[k] += float(resid @ resid)
        n_scored += int(te.sum())

    if n_scored == 0:
        raise ValueError("every fold was degenerate; cannot cross-validate")
    vals = sq_err / n_scored
    return SelectionResult(
        chosen_index=int(np.argmin(vals)),
        criterion_values=vals,
        fold_warnings=warnings,
        cd_levels=cd_levels,
        nonconverged=nonconverged,
    )
