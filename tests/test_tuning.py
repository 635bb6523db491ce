import math

import numpy as np
import pytest

from l1concave.penalty import PenaltySpec
from l1concave.simulate import SimConfig, gen_design, gen_response
from l1concave.solver import (FitResult, PathResult, RegressionProblem, default_lambda_grid,
                              fit_combined, fit_path, lasso_homotopy, standardize)
from l1concave.tuning import bic_select, cv_select, fold_assignment

LASSO = PenaltySpec("l1", 0.0)


def make_fit(beta, prob, penalty=PenaltySpec("l1", 0.0, 0.1)):
    """A FitResult of beta whose rss is the r'r of prob's residual."""
    beta = np.asarray(beta, dtype=float)
    r = prob.y - prob.X @ beta
    return FitResult(beta=beta, support=np.flatnonzero(beta), objective=0.0,
                     rss=float(r @ r), iterations=1, converged=True, kkt_inf=0.0,
                     coordinatewise_global=True, penalty=penalty,
                     sweep_objectives=np.zeros(2))


def lasso_problem(n, p, seed, sigma=0.3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta0 = np.zeros(p)
    beta0[: min(3, p)] = [1.5, -1.0, 0.8][: min(3, p)]
    y = X @ beta0 + sigma * rng.standard_normal(n)
    Xs, _ = standardize(X)
    return RegressionProblem(Xs, y)


def test_bic_matches_independent_recompute():
    prob = lasso_problem(30, 8, seed=1)
    grid = np.array([0.5, 0.3, 0.1, 0.05])
    fits = []
    beta = np.zeros(8)
    for lam in grid:
        fit = fit_combined(prob, PenaltySpec("l1", float(lam)), init=beta)
        beta = fit.beta
        fits.append(fit)
    path = PathResult(fits=fits)
    sel = bic_select(path, prob)
    n = len(prob.y)
    for k, fit in enumerate(fits):
        assert sel.criterion_values[k] == n * math.log(fit.rss / n) + fit.nnz * math.log(n)
        # the certified rss and a recompute on the C-order design differ in
        # rounding only
        r = prob.y - prob.X @ fit.beta
        recomputed = n * math.log(float(r @ r) / n) + fit.nnz * math.log(n)
        assert abs(sel.criterion_values[k] - recomputed) <= 1e-12 * abs(recomputed)
    assert sel.chosen_index == int(np.argmin(sel.criterion_values))


def test_bic_single_fit_path():
    prob = lasso_problem(20, 5, seed=2)
    fit = fit_combined(prob, PenaltySpec("l1", 0.2))
    path = PathResult(fits=[fit])
    assert bic_select(path, prob).chosen_index == 0


def test_bic_equal_rss_prefers_sparser():
    # duplicated columns give two supports with identical fitted values
    v = np.linspace(1.0, 2.0, 10)
    X = np.column_stack([v] * 6)
    y = v.copy()
    prob = RegressionProblem(X, y)
    dense = make_fit([0.2] * 5 + [0.0], prob)
    sparse = make_fit([0.5, 0.5, 0.0, 0.0, 0.0, 0.0], prob)
    path = PathResult(fits=[dense, sparse])
    sel = bic_select(path, prob)
    assert sel.chosen_index == 1


def test_bic_rss_floor_flagged():
    X = np.eye(4)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    prob = RegressionProblem(X, y)
    exact = make_fit(y, prob)  # interpolating fit, RSS exactly zero
    path = PathResult(fits=[exact])
    sel = bic_select(path, prob)
    # RSS/n = 0 is floored at 1e-300: n log(1e-300) + nnz log(n)
    assert sel.criterion_values[0] == 4 * math.log(1e-300) + 4 * math.log(4)


def test_cv_loo_matches_bruteforce_table():
    prob = lasso_problem(10, 3, seed=3)
    grid = np.array([0.4, 0.15, 0.05])
    sel = cv_select(prob, LASSO, grid, 10, seed=0)
    assignment = fold_assignment(10, 10, 0)
    table = np.zeros(len(grid))
    for i in range(10):
        te = assignment == i
        Xtr, scales = standardize(prob.X[~te])
        sub = RegressionProblem(Xtr, prob.y[~te])
        for k, lam in enumerate(grid):
            fit = fit_combined(sub, PenaltySpec("l1", float(lam)), tol=1e-9, max_iter=5000)
            pred = prob.X[te] @ (scales * fit.beta)
            table[k] += float(np.sum((prob.y[te] - pred) ** 2))
    table /= 10
    assert sel.criterion_values == pytest.approx(table, abs=1e-6)
    assert sel.chosen_index == int(np.argmin(table))


def test_cv_single_grid_point():
    prob = lasso_problem(12, 4, seed=4)
    sel = cv_select(prob, LASSO, np.array([0.2]), 3, seed=1)
    assert sel.chosen_index == 0


def test_cv_seed_determinism():
    prob = lasso_problem(24, 6, seed=5)
    grid = np.array([0.3, 0.1, 0.03])
    a = cv_select(prob, LASSO, grid, 4, seed=9)
    b = cv_select(prob, LASSO, grid, 4, seed=9)
    assert np.array_equal(a.criterion_values, b.criterion_values)
    assert a.chosen_index == b.chosen_index


def test_cv_degenerate_fold_skipped():
    # column 2 is nonzero only inside fold 0, so dropping fold 0 for training
    # leaves a zero column and the fold must be skipped with a warning
    rng = np.random.default_rng(7)
    n, p = 20, 3
    X = rng.standard_normal((n, p))
    X[fold_assignment(n, 4, seed=7) != 0, 2] = 0.0
    y = X[:, 0] + 0.1 * rng.standard_normal(n)
    prob = RegressionProblem(X, y)
    sel = cv_select(prob, LASSO, np.array([0.2, 0.05]), 4, seed=7)
    assert sel.fold_warnings == 1


def test_bic_rejects_an_empty_path():
    with pytest.raises(ValueError, match="path is empty"):
        bic_select(PathResult(fits=[]), lasso_problem(10, 3, seed=1))


def test_cv_with_every_fold_degenerate_raises():
    # leave-one-out on sqrt(n) I: each training design loses the one row
    # where its left-out column is nonzero
    n = 5
    prob = RegressionProblem(math.sqrt(n) * np.eye(n), np.arange(n, dtype=float))
    with pytest.raises(ValueError, match="every fold was degenerate"):
        cv_select(prob, LASSO, np.array([1.0, 0.5]), n)


def test_cv_fits_by_cd_the_levels_the_homotopy_cannot_certify():
    # at tol = 1e-20 the check |prox(grad_j + b_j) - b_j| < 10 tol rejects the
    # first nonzero homotopy beta here; only tol differs between the two
    # calls, and of the homotopy's early returns only the certificate reads it
    rng = np.random.default_rng(0)
    X, _ = standardize(rng.standard_normal((30, 12)))
    y = X @ (rng.standard_normal(12) * (rng.random(12) < 0.4)) + 0.5 * rng.standard_normal(30)
    prob = RegressionProblem(X, y)
    grid = default_lambda_grid(X, y, 10, 0.1)
    assert len(lasso_homotopy(prob, grid)) == 10
    assert len(lasso_homotopy(prob, grid, tol=1e-20)) == 1
    assert cv_select(prob, LASSO, grid, 3).cd_levels == 0
    sel = cv_select(prob, LASSO, grid, 3, tol=1e-20, max_iter=50)
    assert sel.cd_levels > 0 and np.all(np.isfinite(sel.criterion_values))


def test_cv_validation(monkeypatch):
    from l1concave import tuning

    prob = lasso_problem(10, 3, seed=9)
    with pytest.raises(ValueError):
        cv_select(prob, LASSO, np.array([0.1, 0.2]), 5)
    with pytest.raises(ValueError):
        cv_select(prob, LASSO, np.array([0.2, 0.1]), 1)
    with pytest.raises(ValueError):
        cv_select(prob, LASSO, np.array([0.2, 0.1]), 11)

    def no_fold(*args, **kwargs):
        raise AssertionError("a fold was fitted")

    # a level <= 0 is rejected before any fold is fitted
    monkeypatch.setattr(tuning, "fit_path", no_fold)
    monkeypatch.setattr(tuning, "lasso_homotopy", no_fold)
    for bad in ([0.2, 0.0], [0.2, -0.1]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            cv_select(prob, LASSO, np.array(bad), 5)


def cd_cv(prob, spec, grid, folds, seed, tol=1e-7, max_iter=1000):
    """K-fold CV criterion of spec from one warm-started fit_path per fold."""
    assignment = fold_assignment(len(prob.y), folds, seed)
    sq_err = np.zeros(len(grid))
    for f in range(folds):
        te = assignment == f
        Xtr, scales = standardize(prob.X[~te])
        path = fit_path(RegressionProblem(Xtr, prob.y[~te]), spec, grid, tol=tol,
                        max_iter=max_iter)
        for k, fit in enumerate(path.fits):
            resid = prob.y[te] - prob.X[te] @ (scales * fit.beta)
            sq_err[k] += float(resid @ resid)
    return sq_err / len(prob.y)


@pytest.mark.parametrize("seed,r", [(20240817, 0), (20240817, 1), (20240818, 0), (20240818, 1)])
def test_cv_lasso_homotopy_matches_cd_on_desk_replicates(seed, r):
    # cv_select on desk data: the design and response of study replicate r, a
    # 30-level lasso grid and 10 folds
    cfg = SimConfig(n=80, p=200, reps=2, seed=seed, rho=0.5, sigma=0.25)
    X = gen_design(cfg.n, cfg.p, cfg.rho, np.random.SeedSequence((seed, r, 0)))
    y = gen_response(X, cfg.beta0, cfg.sigma, np.random.SeedSequence((seed, r, 1)))
    Xs, _ = standardize(X)
    prob = RegressionProblem(Xs, y)
    grid = default_lambda_grid(Xs, y, 30, cfg.grid_ratio)
    fold_seed = np.random.SeedSequence((seed, r, 2))
    sel = cv_select(prob, LASSO, grid, 10, seed=fold_seed)
    ref = cd_cv(prob, LASSO, grid, 10, fold_seed)
    assert sel.cd_levels == 0 and sel.nonconverged == 0
    assert sel.chosen_index == int(np.argmin(ref))
    assert sel.criterion_values == pytest.approx(ref, rel=1e-5)


def test_cv_counts_the_levels_cd_fits():
    # 8 training rows and 40 columns: in two of the three folds the lasso
    # needs 8 active variables above the grid's floor, and the homotopy hands
    # those levels to coordinate descent
    prob = lasso_problem(12, 40, seed=11, sigma=0.5)
    grid = default_lambda_grid(prob.X, prob.y, num=15, ratio=0.01)
    sel = cv_select(prob, LASSO, grid, 3, seed=4)
    assert 0 < sel.cd_levels < 3 * grid.size
    assert sel.nonconverged == 0
    ref = cd_cv(prob, LASSO, grid, 3, 4, tol=1e-10, max_iter=100_000)
    assert sel.criterion_values == pytest.approx(ref, rel=1e-5)
    scad = PenaltySpec("scad", 0.0, 0.0, shape=3.7)
    assert cv_select(prob, scad, grid, 3, seed=4).cd_levels == 3 * grid.size


def test_cv_counts_nonconverged_fold_fits():
    prob = lasso_problem(30, 8, seed=12)
    grid = default_lambda_grid(prob.X, prob.y, num=10, ratio=0.05)
    sel = cv_select(prob, LASSO, grid, 3, seed=5, max_iter=1)
    assert sel.cd_levels > 0 and sel.nonconverged > 0
    assert cv_select(prob, LASSO, grid, 3, seed=5).nonconverged == 0


def test_cv_l1_levels_rounded_together_by_lambda0_fall_back_to_cd():
    # lambda0 + grid rounds both levels to 1e6, so the homotopy's strictly
    # decreasing levels do not exist and coordinate descent fits every level
    prob = lasso_problem(30, 5, seed=0)
    grid = np.array([2e-11, 1e-11])
    for kind in ("l1", "scad"):
        swamped = PenaltySpec(kind, 0.0, lambda0=1e6)
        sel = cv_select(prob, swamped, grid, 3)
        assert sel.cd_levels == 3 * grid.size
        assert np.array_equal(sel.criterion_values, cd_cv(prob, swamped, grid, 3, 0))


@pytest.mark.parametrize("kind", ["scad", "hard", "sica", "mcp"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cv_concave_kinds_equal_the_per_fold_reference(kind, seed):
    # without the homotopy, cv_select is the plain per-fold loop, bit for bit
    prob, spec = lasso_problem(30, 8, seed=20 + seed), PenaltySpec(kind, 0.0, lambda0=0.02)
    grid = default_lambda_grid(prob.X, prob.y, num=8, ratio=0.05)
    sel = cv_select(prob, spec, grid, 4, seed=seed)
    assert np.array_equal(sel.criterion_values, cd_cv(prob, spec, grid, 4, seed))
