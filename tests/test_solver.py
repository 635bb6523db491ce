import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from l1concave import scalar_prox, solver
from l1concave.penalty import KINDS, PenaltySpec, penalty_value, scalar_value
from l1concave.scalar_prox import prox_combined
from l1concave.solver import (DegenerateColumnError, RegressionProblem,
                              default_lambda_grid, fit_combined,
                              fit_path, lasso_homotopy, level_grid, objective_value,
                              refit_ls, standardize, computable_certificate,
                              universal_lambda0)


def orthogonal_problem(n, seed=0):
    # Hadamard columns have exact norm sqrt(n) and exact zero cross products
    X = hadamard(n).astype(float)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(n) * 1.5
    return RegressionProblem(X, y), X, y


def random_problem(n, p, s, sigma, seed, rho=0.4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if rho:
        X[:, 1:] = rho * X[:, :-1] + math.sqrt(1 - rho**2) * X[:, 1:]
    beta0 = np.zeros(p)
    beta0[:s] = rng.uniform(0.8, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    y = X @ beta0 + sigma * rng.standard_normal(n)
    Xs, scales = standardize(X)
    return RegressionProblem(Xs, y), beta0, scales


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
    for num, ratio in ((0, 0.05), (25, 2.0), (25, 1.0), (25, 0.0)):
        with pytest.raises(ValueError, match="num >= 1"):
            default_lambda_grid(X, y, num=num, ratio=ratio)


def test_universal_lambda0_needs_a_row():
    with pytest.raises(ValueError, match="n must be at least 1"):
        universal_lambda0(0, 10, 1.0)


def test_default_lambda_grid_starts_at_one_when_x_y_is_zero():
    # y is orthogonal to both Hadamard columns, so lambda_max = ||X'y/n||_inf = 0
    H = hadamard(4).astype(float)
    grid = default_lambda_grid(H[:, :2], H[:, 2], num=3, ratio=0.5)
    assert grid[0] == 1.0 and grid[-1] == 0.5
    assert grid[1] == pytest.approx(math.sqrt(0.5), rel=1e-15)


@pytest.mark.parametrize("values", [[], [0.1, 0.2], [0.3, 0.3], [0.3, -0.1], [0.0], [math.nan]])
def test_level_grid_rejects_bad_grids(values):
    with pytest.raises(ValueError, match="nonempty, positive and strictly decreasing"):
        level_grid(values)


def test_level_grid_returns_floats():
    grid = level_grid([3, 2.5, 1])
    assert grid.dtype == float and grid.tolist() == [3.0, 2.5, 1.0]


def test_problem_validation():
    with pytest.raises(ValueError):
        RegressionProblem(np.ones((3, 2)), np.ones(4))
    with pytest.raises(ValueError):
        RegressionProblem(np.array([[1.0, math.nan]]), np.ones(1))
    # an unstandardized design is a valid problem (BIC and refit_ls use one);
    # the fitters reject it and name the column whose norm is not sqrt(n)
    prob = RegressionProblem(2 * np.ones((4, 1)), np.ones(4))
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    with pytest.raises(ValueError, match="column 0"):
        fit_combined(prob, PenaltySpec("l1", 0.1))
    with pytest.raises(ValueError, match="column 0"):
        fit_combined(prob, spec)
    with pytest.raises(ValueError, match="column 0"):
        fit_path(prob, spec, [0.3, 0.2])


@pytest.mark.parametrize("X, message", [
    (np.ones(3), "X must be a 2-d array"),
    (np.ones((0, 2)), "at least one row and one column"),
    (np.ones((3, 0)), "at least one row and one column"),
], ids=["1-d", "no rows", "no columns"])
def test_problem_rejects_a_design_that_is_not_a_nonempty_matrix(X, message):
    with pytest.raises(ValueError, match=message):
        RegressionProblem(X, np.ones(len(X)))


def test_init_of_the_wrong_length_is_rejected():
    prob, _, _ = random_problem(20, 5, 2, 0.3, seed=3)
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    for init in (np.zeros(4), np.zeros(6), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="init has wrong length"):
            fit_combined(prob, spec, init=init)
        with pytest.raises(ValueError, match="init has wrong length"):
            fit_path(prob, spec, [0.3, 0.2], init=init)


def test_max_iter_reached_on_the_closing_full_sweep():
    # searched case: the third sweep is the closing full sweep after two
    # active-set sweeps, and it still moves a coefficient by tol or more, so
    # the fit stops there; it is the first three sweeps of the unbounded fit
    prob, _, _ = random_problem(30, 12, 3, 0.3, seed=18)
    spec = PenaltySpec("hard", 0.3, lambda0=0.05)
    full = fit_combined(prob, spec)
    fit = fit_combined(prob, spec, max_iter=3)
    assert full.converged and full.iterations > 3
    assert fit.iterations == 3 and not fit.converged and not fit.coordinatewise_global
    assert np.array_equal(fit.sweep_objectives, full.sweep_objectives[:4])
    assert not np.array_equal(fit.beta, full.beta)


def test_lasso_orthogonal_soft_threshold():
    prob, X, y = orthogonal_problem(16, seed=3)
    lam = 0.3
    fit = fit_combined(prob, PenaltySpec("l1", lam))
    z = X.T @ y / 16
    expected = np.sign(z) * np.clip(np.abs(z) - lam, 0.0, None)
    assert fit.beta == pytest.approx(expected, abs=1e-8)
    assert fit.converged and fit.kkt_inf <= lam + 1e-6


def test_l1_fit_is_a_one_point_l1_path():
    prob, _, _ = random_problem(40, 15, 4, 0.3, seed=6)
    for lam in (0.5, 0.1, 0.01):
        lasso = fit_combined(prob, PenaltySpec("l1", lam))
        point = fit_path(prob, PenaltySpec("l1", 0.0), [lam]).fits[0]
        assert np.array_equal(lasso.beta, point.beta)
        assert lasso.iterations == point.iterations
        assert lasso.penalty == point.penalty == PenaltySpec("l1", lam)


def test_lasso_kkt_zero_solution():
    prob, X, y = orthogonal_problem(8, seed=4)
    lam = float(np.max(np.abs(X.T @ y)) / 8) + 1e-9
    fit = fit_combined(prob, PenaltySpec("l1", lam))
    assert np.all(fit.beta == 0.0) and fit.support.size == 0


def test_lasso_zero_lambda_is_ols():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 8))
    y = rng.standard_normal(50)
    Xs, scales = standardize(X)
    prob = RegressionProblem(Xs, y)
    fit = fit_combined(prob, PenaltySpec("l1", 0.0), tol=1e-10, max_iter=5000)
    ols = np.linalg.lstsq(Xs, y, rcond=None)[0]
    assert fit.beta == pytest.approx(ols, abs=1e-6)


def test_combined_single_coordinate_reduces_to_prox():
    n = 9
    X = np.full((n, 1), 1.0) * math.sqrt(n) / math.sqrt(n)  # unit entries, norm sqrt(n)
    y = np.linspace(-1, 2, n)
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    prob = RegressionProblem(X, y)
    fit = fit_combined(prob, spec)
    z = float(X[:, 0] @ y) / n
    # the engine reads z as a Gram-updated gradient, so it may round z
    # differently from the one dot product here
    want = prox_combined(z, spec)
    assert abs(fit.beta[0] - want) <= 4.0 * np.finfo(float).eps * abs(want)
    assert fit.converged is True and fit.coordinatewise_global is True


def test_combined_orthogonal_hard_closed_form():
    spec = PenaltySpec("hard", 0.35, lambda0=0.15)
    prob, X, y = orthogonal_problem(32, seed=6)
    fit = fit_combined(prob, spec)
    z = X.T @ y / 32
    expected = np.where(np.abs(z) > spec.lam + spec.lambda0,
                        np.sign(z) * (np.abs(z) - spec.lambda0), 0.0)
    assert fit.beta == pytest.approx(expected, abs=1e-10)
    assert fit.converged and fit.coordinatewise_global


def test_combined_fixed_point_init():
    # under exact orthogonality one sweep lands exactly on the fixed point,
    # so restarting from it changes nothing
    spec = PenaltySpec("scad", 0.3, lambda0=0.1)
    prob, X, y = orthogonal_problem(16, seed=7)
    first = fit_combined(prob, spec)
    second = fit_combined(prob, spec, init=first.beta)
    assert second.beta == pytest.approx(first.beta, abs=1e-12)
    assert second.converged and second.iterations <= 3


def test_objective_recompute_invariant():
    rng = np.random.default_rng(8)
    for kind in ("hard", "scad", "mcp", "sica", "l1"):
        spec = PenaltySpec(kind, 0.25, lambda0=0.1)
        prob, _, _ = random_problem(40, 25, 4, 0.3, seed=rng.integers(1 << 30))
        fit = fit_combined(prob, spec)
        fresh = objective_value(prob.X, prob.y, fit.beta, spec)
        assert abs(fit.objective - fresh) <= 1e-10 * max(1.0, abs(fresh))


@pytest.mark.parametrize("kind", KINDS)
def test_rss_and_objective_read_the_certified_residual_bit_for_bit(kind):
    # every fit of a path, the later ones started from the level before:
    # rss is r'r of y - X beta on the Fortran copy of X, and the objective is
    # rss / (2n) plus the penalty sum recomputed at the fit's end
    prob, _, _ = random_problem(60, 40, 5, 0.4, seed=KINDS.index(kind))
    grid = default_lambda_grid(prob.X, prob.y, 10, 0.05)
    for fit in fit_path(prob, PenaltySpec(kind, 0.0, lambda0=0.05), grid).fits:
        r = prob.y - np.asfortranarray(prob.X).dot(fit.beta)
        assert struct.pack("<d", fit.rss) == struct.pack("<d", float(r.dot(r)))
        pen = solver._penalty_sum(fit.beta, fit.penalty, scalar_value(fit.penalty))
        objective = fit.rss / (2.0 * len(prob.y)) + pen
        assert struct.pack("<d", fit.objective) == struct.pack("<d", objective)


def test_certificate_recomputes_after_a_lone_closing_sweep_moves():
    # at the level lambda_max = max |X'y| / n itself the screen's matvec
    # leaves every coordinate out, and the closing sweep's dot product lifts
    # one by a rounding error; that one change must send the certificate to
    # a fresh residual instead of the start's
    rng = np.random.default_rng(5)
    n, p = rng.integers(8, 60), rng.integers(2, 80)
    X, _ = standardize(rng.standard_normal((n, p)))
    y = rng.standard_normal(n) * 10**rng.uniform(-3, 3)
    fit = fit_combined(RegressionProblem(X, y), PenaltySpec("l1", float(np.max(np.abs(X.T @ y)) / n)))
    assert fit.iterations == 1 and fit.beta.any()
    r = y - np.asfortranarray(X).dot(fit.beta)
    assert struct.pack("<d", fit.rss) == struct.pack("<d", float(r.dot(r)))
    assert fit.kkt_inf == float(np.max(np.abs(np.asfortranarray(X).T.dot(r) / n)))


def test_objective_monotone_per_sweep():
    for kind, seed in (("hard", 1), ("scad", 2), ("sica", 3), ("mcp", 4)):
        spec = PenaltySpec(kind, 0.3, lambda0=0.12)
        prob, _, _ = random_problem(60, 40, 5, 0.4, seed=seed)
        fit = fit_combined(prob, spec)
        objs = fit.sweep_objectives
        assert objs is not None and len(objs) >= 2
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(objs[:-1])))



def test_descent_check_catches_a_prox_that_raises_the_penalty(monkeypatch):
    # from a converged fit every coordinate sits at its subproblem's global
    # minimizer; a prox returning the unpenalized target z lowers the residual
    # sum of squares but raises the penalty by more, so only the running
    # penalty sum shows the increase
    spec = PenaltySpec("scad", 0.3, lambda0=0.12)
    prob, _, _ = random_problem(60, 40, 5, 0.4, seed=2)
    start = fit_combined(prob, spec).beta
    monkeypatch.setattr(scalar_prox, "make_prox", lambda p: (lambda z: z))
    with pytest.raises(RuntimeError, match="objective increased"):
        fit_combined(prob, spec, init=start)


def test_last_sweep_objective_agrees_with_recomputed_objective():
    for kind, seed in (("l1", 0), ("hard", 1), ("scad", 2), ("sica", 3), ("mcp", 4)):
        spec = PenaltySpec(kind, 0.3, lambda0=0.12)
        prob, _, _ = random_problem(60, 40, 5, 0.4, seed=seed)
        fit = fit_combined(prob, spec)
        objs = fit.sweep_objectives
        assert fit.converged and fit.nnz > 0
        assert abs(objs[-1] - fit.objective) <= solver._RUNNING_RTOL * objs[0]


def test_running_penalty_sum_is_checked_against_its_recomputation(monkeypatch):
    # the penalty sum is recomputed once at the start and once at the end of
    # a fit; a recomputation off by more than the bound must raise
    spec = PenaltySpec("sica", 0.3, lambda0=0.12)
    prob, _, _ = random_problem(60, 40, 5, 0.4, seed=3)
    exact = solver._penalty_sum
    for rel, raises in ((1e-6, True), (1e-12, False)):
        calls = []

        def skewed(beta, p, pval):
            calls.append(1)
            return exact(beta, p, pval) * (1.0 + rel if len(calls) == 2 else 1.0)

        monkeypatch.setattr(solver, "_penalty_sum", skewed)
        if raises:
            with pytest.raises(RuntimeError, match="running penalty sum"):
                fit_combined(prob, spec)
        else:
            fit_combined(prob, spec)
        assert len(calls) == 2


@st.composite
def sparse_betas(draw):
    """(beta, spec): a penalty of any kind and a beta whose entries are often
    0.0 or -0.0 and include +-lam and +-a*lam, where hard, scad and mcp
    change formula."""
    kind = draw(st.sampled_from(KINDS))
    shape = {"scad": st.floats(2.1, 5.0), "mcp": st.floats(1.1, 4.0),
             "sica": st.floats(0.05, 2.0)}.get(kind, st.none())
    spec = PenaltySpec(kind, draw(st.floats(0.0, 2.0)), lambda0=draw(st.floats(0.0, 1.0)),
                       shape=draw(shape))
    kinks = [spec.lam, -spec.lam] + ([spec.shape * spec.lam, -spec.shape * spec.lam]
                                     if kind in ("scad", "mcp", "sica") else [])
    entry = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from(kinks), st.floats(-5.0, 5.0))
    return np.array(draw(st.lists(entry, min_size=1, max_size=40))), spec


@settings(max_examples=200, deadline=None)
@given(sparse_betas())
def test_penalty_sum_equals_the_numpy_penalty_bit_for_bit(case):
    # the engine's running-sum check builds the penalty array from the scalar
    # penalty on the support; it must sum to exactly the numpy formula
    beta, spec = case
    pval = scalar_value(spec)
    for b in (beta, np.zeros(beta.size), -np.zeros(beta.size)):
        ab = np.abs(b)
        want = float(spec.lambda0 * ab.sum() + penalty_value(spec, ab).sum())
        got = solver._penalty_sum(b, spec, pval)
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_coordinatewise_global_certificate():
    spec = PenaltySpec("mcp", 0.3, lambda0=0.1)
    prob, _, _ = random_problem(50, 30, 4, 0.3, seed=9)
    fit = fit_combined(prob, spec, tol=1e-9)
    assert fit.converged and fit.coordinatewise_global
    r = prob.y - prob.X @ fit.beta
    z = prob.X.T @ r / prob.X.shape[0] + fit.beta
    dev = max(abs(prox_combined(float(zj), spec) - bj) for zj, bj in zip(z, fit.beta))
    assert dev < 10 * 1e-9


def test_lambda_zero_reduction():
    for kind in ("hard", "scad", "mcp", "sica"):
        lam0 = 0.18
        spec = PenaltySpec(kind, 0.0, lambda0=lam0)
        prob, _, _ = random_problem(40, 60, 4, 0.3, seed=11)
        combined = fit_combined(prob, spec, tol=1e-9, max_iter=3000)
        lasso = fit_combined(prob, PenaltySpec("l1", lam0), tol=1e-9, max_iter=3000)
        assert combined.beta == pytest.approx(lasso.beta, abs=1e-6)


def test_scale_roundtrip():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 10)) * rng.uniform(0.5, 3.0, size=10)
    beta0 = np.zeros(10)
    beta0[:3] = [1.5, -2.0, 1.0]
    y = X @ beta0
    Xs, scales = standardize(X)
    prob = RegressionProblem(Xs, y)
    fit = fit_combined(prob, PenaltySpec("l1", 1e-8), tol=1e-11, max_iter=5000)
    assert scales * fit.beta == pytest.approx(beta0, abs=1e-6)


def test_fit_path_validation_and_single_point():
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    prob, _, _ = random_problem(40, 20, 3, 0.2, seed=13)
    for bad in ([0.1, 0.2], [], [0.3, -0.1]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            fit_path(prob, spec, bad)
    for tol, max_iter in ((0.0, 10), (-1.0, 10), (math.inf, 10), (1e-7, 0)):
        with pytest.raises(ValueError, match="tol > 0 and max_iter >= 1"):
            fit_path(prob, spec, [0.3], tol=tol, max_iter=max_iter)
    init = fit_combined(prob, PenaltySpec("l1", 0.2)).beta
    path = fit_path(prob, spec, [0.3], init=init)
    direct = fit_combined(prob, replace(spec, lam=0.3), init=init)
    assert np.array_equal(path.fits[0].beta, direct.beta)
    assert all(fit.penalty.lambda0 == spec.lambda0 for fit in path.fits)
    # each fit carries its level, the grid value bit for bit
    grid = [0.3, 0.2, 0.1]
    levels = [fit.penalty.lam for fit in fit_path(prob, spec, grid).fits]
    assert struct.pack("<3d", *levels) == struct.pack("<3d", *level_grid(grid))


def test_fit_path_all_zero_at_lambda_max():
    spec = PenaltySpec("hard", 0.3, lambda0=0.0)
    prob, _, _ = random_problem(40, 20, 3, 0.2, seed=14)
    lam_max = float(np.max(np.abs(prob.X.T @ prob.y)) / 40)
    init = fit_combined(prob, PenaltySpec("l1", lam_max + 0.1)).beta
    path = fit_path(prob, spec, [lam_max + 0.1], init=init)
    assert path.fits[0].support.size == 0


def test_fit_path_warm_start_runs_and_cv_init():
    spec = PenaltySpec("scad", 0.3, lambda0=0.08)
    prob, beta0, scales = random_problem(60, 30, 4, 0.25, seed=15)
    grid = default_lambda_grid(prob.X, prob.y, num=12, ratio=0.05)
    path = fit_path(prob, spec, grid)
    assert len(path.fits) == 12
    assert all(f.converged for f in path.fits)
    assert all(f.penalty == replace(spec, lam=lam) for f, lam in zip(path.fits, grid))
    nnz = [f.nnz for f in path.fits]
    assert nnz[-1] >= nnz[0]
    # init=None is the zero start, bit for bit
    zero = fit_path(prob, spec, grid, init=np.zeros(prob.X.shape[1]))
    for a, b in zip(path.fits, zero.fits):
        assert np.array_equal(a.beta, b.beta) and a.iterations == b.iterations
        assert a.objective == b.objective and a.kkt_inf == b.kkt_inf


def test_computable_certificate_checks():
    spec = PenaltySpec("hard", 0.3, lambda0=0.1)
    prob, _, _ = random_problem(40, 20, 3, 0.2, seed=16)
    zero = fit_combined(prob, replace(spec, lam=10.0), init=None)
    cert = computable_certificate(zero, s_hat=0)
    assert cert.sparsity_ok  # an all-zero fit is trivially sparse enough
    fit = fit_combined(prob, spec)
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


def certified_lasso(prob, level, beta, tol=1e-7):
    """Whether beta passes the coordinatewise-global check at this L1 level on
    every coordinate, recomputed here from prox_combined."""
    spec = PenaltySpec("l1", float(level))
    grad = prob.X.T @ (prob.y - prob.X @ beta) / prob.X.shape[0]
    return all(abs(prox_combined(float(g + b), spec) - b) < 10 * tol for g, b in zip(grad, beta))


@st.composite
def lasso_problems(draw):
    """A standardized problem with n <= 30, tall (p < n) or wide (n < p <= 60),
    about five true nonzeros, and six levels between 1.2 and 0.05 lambda_max."""
    n = draw(st.integers(5, 30))
    p = draw(st.integers(1, n - 1) if draw(st.booleans()) else st.integers(n + 1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, _ = standardize(rng.standard_normal((n, p)))
    beta0 = rng.standard_normal(p) * (rng.random(p) < min(1.0, 5.0 / p))
    y = X @ beta0 + 0.5 * rng.standard_normal(n)
    lam_max = float(np.max(np.abs(X.T @ y))) / n
    fracs = draw(st.lists(st.floats(0.05, 1.2), min_size=1, max_size=6, unique=True))
    # distinct fractions one ulp apart can round to one level
    levels = np.unique(lam_max * np.array(fracs))[::-1]
    return RegressionProblem(X, y), levels


@settings(max_examples=40, deadline=None)
@given(lasso_problems())
def test_homotopy_is_certified_and_equals_tight_cd(case):
    prob, levels = case
    n, p = prob.X.shape
    betas = lasso_homotopy(prob, levels)
    if p < n:  # |A| <= p < n: only a singular G_AA could stop it, which needs a tie
        assert len(betas) == levels.size
    for level, beta in zip(levels, betas):
        assert certified_lasso(prob, level, beta)
        ref = fit_combined(prob, PenaltySpec("l1", float(level)), tol=1e-12, max_iter=200_000)
        assert ref.converged
        assert np.max(np.abs(beta - ref.beta)) <= 1e-8


def test_homotopy_follows_a_coefficient_back_to_zero():
    # searched case: on this AR(0.7) design coefficient 3 enters the path and
    # leaves it again further down the grid
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 6))
    X[:, 1:] = 0.7 * X[:, :-1] + math.sqrt(1 - 0.49) * X[:, 1:]
    X, _ = standardize(X)
    y = X @ np.array([1.0, -0.8, 0.6, 0.0, 0.0, 0.0]) + 0.3 * rng.standard_normal(20)
    prob = RegressionProblem(X, y)
    grid = default_lambda_grid(X, y, num=20, ratio=0.01)
    betas = lasso_homotopy(prob, grid)
    assert len(betas) == grid.size
    on = np.flatnonzero([b[3] != 0.0 for b in betas])
    assert on.size and betas[-1][3] == 0.0 and on[-1] < grid.size - 1
    for level, beta in zip(grid, betas):
        ref = fit_combined(prob, PenaltySpec("l1", float(level)), tol=1e-12, max_iter=200_000)
        assert np.max(np.abs(beta - ref.beta)) <= 1e-8


def test_homotopy_hands_a_singular_gram_to_cd():
    # searched case: column 1 duplicates column 0, and rounding lets the
    # duplicate enter beside it, so G_AA is singular; the homotopy stops
    # there and coordinate descent, warm-started from its last fit, certifies
    # the remaining levels
    rng = np.random.default_rng(37)
    X = rng.standard_normal((30, 8))
    X[:, 1] = X[:, 0]
    X, _ = standardize(X)
    y = X[:, 0] + 0.5 * X[:, 3] + 0.1 * rng.standard_normal(30)
    prob = RegressionProblem(X, y)
    grid = default_lambda_grid(X, y, num=30, ratio=0.01)
    betas = lasso_homotopy(prob, grid)
    assert 0 < len(betas) < grid.size
    assert all(certified_lasso(prob, level, beta) for level, beta in zip(grid, betas))
    rest = fit_path(prob, PenaltySpec("l1", 0.0), grid[len(betas):], init=betas[-1])
    assert all(fit.coordinatewise_global for fit in rest.fits)


def test_homotopy_validation_and_levels_above_lambda_max():
    prob, _, _ = random_problem(30, 10, 3, 0.3, seed=21)
    lam_max = float(np.max(np.abs(prob.X.T @ prob.y))) / 30
    betas = lasso_homotopy(prob, [2.0 * lam_max, (1.0 + 1e-9) * lam_max, 0.5 * lam_max])
    assert len(betas) == 3
    assert not betas[0].any() and not betas[1].any() and betas[2].any()
    for bad in ([0.1, 0.2], [], [0.3, -0.1]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            lasso_homotopy(prob, bad)
    for tol, max_iter in ((0.0, 10), (1e-7, 0)):
        with pytest.raises(ValueError, match="tol > 0 and max_iter >= 1"):
            lasso_homotopy(prob, [0.3], tol=tol, max_iter=max_iter)
    with pytest.raises(ValueError, match="run standardize"):
        lasso_homotopy(RegressionProblem(2.0 * prob.X, prob.y), [0.3])
