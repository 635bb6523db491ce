import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import hadamard

from l1concave.penalty import PenaltySpec
from l1concave.scalar_prox import prox_combined
from l1concave.solver import (DegenerateColumnError, RegressionProblem,
                              default_lambda_grid, fit_combined, fit_lasso,
                              fit_path, objective_value, refit_ls, standardize,
                              computable_certificate, universal_lambda0)


def orthogonal_problem(n, seed=0, penalty=None):
    # Hadamard columns have exact norm sqrt(n) and exact zero cross products
    X = hadamard(n).astype(float)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) * 1.5
    return RegressionProblem(X, y, penalty=penalty, standardized=True), X, y


def random_problem(n, p, s, sigma, seed, penalty=None, rho=0.4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if rho:
        X[:, 1:] = rho * X[:, :-1] + math.sqrt(1 - rho**2) * X[:, 1:]
    beta0 = np.zeros(p)
    beta0[:s] = rng.uniform(0.8, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    y = X @ beta0 + sigma * rng.standard_normal(n)
    Xs, scales = standardize(X)
    return RegressionProblem(Xs, y, penalty=penalty, standardized=True), beta0, scales


def test_standardize_examples():
    ones = np.ones((4, 1))
    Xs, scales = standardize(ones)
    assert np.array_equal(Xs, ones) and scales[0] == 1.0
    X = np.array([[3.0], [0.0], [0.0], [0.0]])
    Xs, scales = standardize(X)
    assert np.allclose(Xs[:, 0], [2.0, 0.0, 0.0, 0.0])
    assert scales[0] == pytest.approx(2.0 / 3.0)
    again, s2 = standardize(Xs)
    assert np.array_equal(again, Xs) and np.all(s2 == 1.0)


def test_standardize_zero_column_named():
    X = np.ones((5, 3))
    X[:, 1] = 0.0
    with pytest.raises(DegenerateColumnError, match="column 1"):
        standardize(X)


def test_universal_lambda0():
    v = universal_lambda0(100, 100, 1.0)
    assert v == pytest.approx(math.sqrt(math.log(100) / 100), abs=0)
    assert v == pytest.approx(0.2146, abs=1e-4)
    assert universal_lambda0(100, 100, 0.0) == 0.0
    assert universal_lambda0(100, 100, 2.0) == 2.0 * v
    assert universal_lambda0(50, 200, 1.0) == pytest.approx(math.sqrt(math.log(200) / 50))
    with pytest.raises(ValueError):
        universal_lambda0(100, 1, 1.0)


def test_default_lambda_grid():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 10))
    y = rng.standard_normal(20)
    grid = default_lambda_grid(X, y, num=25, ratio=0.02)
    lam_max = np.max(np.abs(X.T @ y)) / 20
    assert grid[0] == pytest.approx(lam_max)
    assert grid[-1] == pytest.approx(0.02 * lam_max)
    assert len(grid) == 25 and np.all(np.diff(grid) < 0)


def test_problem_validation():
    with pytest.raises(ValueError):
        RegressionProblem(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        RegressionProblem(np.array([[1.0, math.nan]]), np.ones(1))
    with pytest.raises(ValueError, match="column 0"):
        RegressionProblem(2 * np.ones((4, 1)), np.ones(4), standardized=True)
    prob = RegressionProblem(np.ones((4, 1)), np.ones(4))  # not standardized
    with pytest.raises(ValueError, match="standardized"):
        fit_lasso(prob, 0.1)


def test_lasso_orthogonal_soft_threshold():
    prob, X, y = orthogonal_problem(16, seed=3)
    lam = 0.3
    fit = fit_lasso(prob, lam)
    z = X.T @ y / 16
    expected = np.sign(z) * np.clip(np.abs(z) - lam, 0.0, None)
    assert fit.beta == pytest.approx(expected, abs=1e-8)
    assert fit.converged and fit.kkt_inf <= lam + 1e-6


def test_lasso_kkt_zero_solution():
    prob, X, y = orthogonal_problem(8, seed=4)
    lam = float(np.max(np.abs(X.T @ y)) / 8) + 1e-9
    fit = fit_lasso(prob, lam)
    assert np.all(fit.beta == 0.0) and fit.support.size == 0


def test_lasso_zero_lambda_is_ols():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 8))
    y = rng.standard_normal(50)
    Xs, scales = standardize(X)
    prob = RegressionProblem(Xs, y, standardized=True)
    fit = fit_lasso(prob, 0.0, tol=1e-10, max_iter=5000)
    ols = np.linalg.lstsq(Xs, y, rcond=None)[0]
    assert fit.beta == pytest.approx(ols, abs=1e-6)


def test_combined_single_coordinate_reduces_to_prox():
    n = 9
    X = np.full((n, 1), 1.0) * math.sqrt(n) / math.sqrt(n)  # unit entries, norm sqrt(n)
    y = np.linspace(-1, 2, n)
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    prob = RegressionProblem(X, y, penalty=spec, standardized=True)
    fit = fit_combined(prob)
    z = float(X[:, 0] @ y) / n
    assert fit.beta[0] == prox_combined(z, spec)


def test_combined_orthogonal_hard_closed_form():
    spec = PenaltySpec("hard", 0.35, lambda0=0.15)
    prob, X, y = orthogonal_problem(32, seed=6, penalty=spec)
    fit = fit_combined(prob)
    z = X.T @ y / 32
    expected = np.where(np.abs(z) > spec.lam + spec.lambda0,
                        np.sign(z) * (np.abs(z) - spec.lambda0), 0.0)
    assert fit.beta == pytest.approx(expected, abs=1e-10)
    assert fit.converged and fit.coordinatewise_global


def test_combined_fixed_point_init():
    # under exact orthogonality one sweep lands exactly on the fixed point,
    # so restarting from it changes nothing
    spec = PenaltySpec("scad", 0.3, lambda0=0.1)
    prob, X, y = orthogonal_problem(16, seed=7, penalty=spec)
    first = fit_combined(prob)
    second = fit_combined(prob, init=first.beta)
    assert second.beta == pytest.approx(first.beta, abs=1e-12)
    assert second.converged and second.iterations <= 3


def test_objective_recompute_invariant():
    rng = np.random.default_rng(8)
    for kind in ("hard", "scad", "mcp", "sica", "l1"):
        spec = PenaltySpec(kind, 0.25, lambda0=0.1)
        prob, _, _ = random_problem(40, 25, 4, 0.3, seed=rng.integers(1 << 30), penalty=spec)
        fit = fit_combined(prob)
        fresh = objective_value(prob.X, prob.y, fit.beta, spec)
        assert abs(fit.objective - fresh) <= 1e-10 * max(1.0, abs(fresh))


def test_objective_monotone_per_sweep():
    for kind, seed in (("hard", 1), ("scad", 2), ("sica", 3), ("mcp", 4)):
        spec = PenaltySpec(kind, 0.3, lambda0=0.12)
        prob, _, _ = random_problem(60, 40, 5, 0.4, seed=seed, penalty=spec)
        fit = fit_combined(prob, record_objectives=True)
        objs = fit.sweep_objectives
        assert objs is not None and len(objs) >= 2
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(objs[:-1])))


def test_coordinatewise_global_certificate():
    spec = PenaltySpec("mcp", 0.3, lambda0=0.1)
    prob, _, _ = random_problem(50, 30, 4, 0.3, seed=9, penalty=spec)
    fit = fit_combined(prob, tol=1e-9)
    assert fit.converged and fit.coordinatewise_global
    r = prob.y - prob.X @ fit.beta
    z = prob.X.T @ r / prob.X.shape[0] + fit.beta
    dev = max(abs(prox_combined(float(zj), spec) - bj) for zj, bj in zip(z, fit.beta))
    assert dev < 10 * 1e-9


def test_lambda_zero_reduction():
    for kind in ("hard", "scad", "mcp", "sica"):
        lam0 = 0.18
        spec = PenaltySpec(kind, 0.0, lambda0=lam0)
        prob, _, _ = random_problem(40, 60, 4, 0.3, seed=11, penalty=spec)
        combined = fit_combined(prob, tol=1e-9, max_iter=3000)
        lasso = fit_lasso(prob, lam0, tol=1e-9, max_iter=3000)
        assert combined.beta == pytest.approx(lasso.beta, abs=1e-6)


def test_scale_roundtrip():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 10)) * rng.uniform(0.5, 3.0, size=10)
    beta0 = np.zeros(10)
    beta0[:3] = [1.5, -2.0, 1.0]
    y = X @ beta0
    Xs, scales = standardize(X)
    prob = RegressionProblem(Xs, y, standardized=True)
    fit = fit_lasso(prob, 1e-8, tol=1e-11, max_iter=5000)
    assert scales * fit.beta == pytest.approx(beta0, abs=1e-6)


def test_fit_path_validation_and_single_point():
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    prob, _, _ = random_problem(40, 20, 3, 0.2, seed=13, penalty=spec)
    with pytest.raises(ValueError):
        fit_path(prob, [0.1, 0.2])
    with pytest.raises(ValueError):
        fit_path(prob, [])
    with pytest.raises(ValueError):
        fit_path(prob, [0.3, -0.1])
    init = fit_lasso(prob, 0.2).beta
    path = fit_path(prob, [0.3], init=init)
    direct = fit_combined(replace(prob, penalty=replace(spec, lam=0.3)), init=init)
    assert np.array_equal(path.fits[0].beta, direct.beta)
    assert path.lambda0 == spec.lambda0


def test_fit_path_all_zero_at_lambda_max():
    spec = PenaltySpec("hard", 0.3, lambda0=0.0)
    prob, _, _ = random_problem(40, 20, 3, 0.2, seed=14, penalty=spec)
    lam_max = float(np.max(np.abs(prob.X.T @ prob.y)) / 40)
    path = fit_path(prob, [lam_max + 0.1], init=fit_lasso(prob, lam_max + 0.1).beta)
    assert path.fits[0].support.size == 0


def test_fit_path_warm_start_runs_and_cv_init():
    spec = PenaltySpec("scad", 0.3, lambda0=0.08)
    prob, beta0, scales = random_problem(60, 30, 4, 0.25, seed=15, penalty=spec)
    grid = default_lambda_grid(prob.X, prob.y, num=12, ratio=0.05)
    path = fit_path(prob, grid, cv_folds=5, cv_seed=1)
    assert len(path.fits) == 12
    assert all(f.converged for f in path.fits)
    assert all(f.penalty == replace(spec, lam=lam) for f, lam in zip(path.fits, grid))
    nnz = [f.nnz for f in path.fits]
    assert nnz[-1] >= nnz[0]


def test_fit_path_cv_start_uses_path_tol_and_max_iter(monkeypatch):
    # the cross-validated lasso start runs at the path's own tol and max_iter
    from l1concave import tuning

    seen = []
    real = tuning.cv_select

    def spy(*args, **kwargs):
        seen.append((kwargs.get("tol"), kwargs.get("max_iter")))
        return real(*args, **kwargs)

    monkeypatch.setattr(tuning, "cv_select", spy)
    spec = PenaltySpec("scad", 0.3, lambda0=0.08)
    prob, _, _ = random_problem(40, 20, 3, 0.25, seed=18, penalty=spec)
    fit_path(prob, [0.3, 0.2], tol=1e-4, max_iter=37, cv_folds=3)
    assert seen == [(1e-4, 37)]


def test_computable_certificate_checks():
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    prob, _, _ = random_problem(40, 20, 3, 0.2, seed=16, penalty=spec)
    zero = fit_combined(replace(prob, penalty=replace(spec, lam=10.0)), init=None)
    cert = computable_certificate(zero, s_hat=0)
    assert cert.sparsity_ok  # an all-zero fit is trivially sparse enough
    fit = fit_combined(prob)
    # the certificate reads lambda0 from the fit's own penalty
    low = replace(fit, penalty=replace(spec, lambda0=fit.kkt_inf / 10.0))
    bad = computable_certificate(low, s_hat=3)
    assert not bad.residual_ok and bad.residual_bound == 4.0 * low.penalty.lambda0
    good = computable_certificate(fit, s_hat=3)
    assert good.lambda_ok == (spec.lam >= 0.1) and good.lambda_floor == spec.lambda0


def test_refit_ls():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((50, 12))
    beta0 = np.zeros(12)
    beta0[[1, 4, 7]] = [2.0, -1.0, 0.5]
    prob = RegressionProblem(X, X @ beta0)
    assert np.all(refit_ls(prob, []) == 0.0)
    exact = refit_ls(prob, [1, 4, 7])
    assert exact == pytest.approx(beta0, abs=1e-10)
    # random support against the normal-equations oracle
    y = X @ beta0 + 0.3 * rng.standard_normal(50)
    prob = RegressionProblem(X, y)
    supp = [0, 5, 9]
    est = refit_ls(prob, supp)
    Xs = X[:, supp]
    oracle = np.linalg.solve(Xs.T @ Xs, Xs.T @ y)
    assert est[supp] == pytest.approx(oracle, abs=1e-8)


def test_refit_ls_errors():
    X = np.ones((5, 3))
    X[:, 1] = X[:, 0]
    prob = RegressionProblem(X, np.ones(5))
    with pytest.raises(ValueError, match="condition number"):
        refit_ls(prob, [0, 1])
    wide = RegressionProblem(np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]), np.ones(2))
    with pytest.raises(ValueError, match="sample size"):
        refit_ls(wide, [0, 1, 2])
    with pytest.raises(ValueError, match="duplicate"):
        refit_ls(prob, [0, 0])
    with pytest.raises(ValueError, match="range"):
        refit_ls(prob, [5])
