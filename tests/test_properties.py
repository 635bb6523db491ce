"""Exact invariances of the coordinate-descent fits, checked with hypothesis.

Every property must hold bit for bit, including the number of sweeps: the
solver's arithmetic is symmetric under each transformation, so any
difference is a bug rather than rounding. The same holds against an
unscreened copy of the engine: the solver's zero-skip screen may only skip
coordinate visits whose outcome is known. The one exception is the lasso
under a column permutation, which reorders every sum; its fits must agree to
1e-8 relative.
"""

import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l1concave import scalar_prox, solver
from l1concave.penalty import KINDS, PenaltySpec
from l1concave.simulate import DEFAULT_C_GRID, combined_lambda_grid, gen_design, study_beta0
from l1concave.solver import (RegressionProblem, default_lambda_grid, fit_combined, fit_path,
                              standardize, universal_lambda0)

SHAPES = {"scad": (2.1, 5.0), "mcp": (1.1, 4.0), "sica": (0.05, 2.0)}

SMALL = settings(max_examples=25, deadline=None)


@st.composite
def problems(draw, wide=False):
    """A standardized problem with n <= 30 and a penalty of any kind, as (prob,
    spec); p <= 12, or n < p <= 60 with about five nonzero true coefficients
    when wide."""
    n = draw(st.integers(5, 30))
    p = draw(st.integers(n + 1, 60) if wide else st.integers(1, 12))
    kind = draw(st.sampled_from(KINDS))
    lo, hi = SHAPES.get(kind, (0.0, 0.0))
    shape = draw(st.floats(lo, hi)) if kind in SHAPES else None
    spec = PenaltySpec(kind, draw(st.floats(0.0, 1.0)), lambda0=draw(st.floats(0.0, 0.5)),
                       shape=shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, _ = standardize(rng.standard_normal((n, p)))
    beta0 = rng.standard_normal(p) * (rng.random(p) < (5.0 / p if wide else 0.5))
    y = X @ beta0 + 0.5 * rng.standard_normal(n)
    return RegressionProblem(X, y), spec


def assert_same_fit(a, b, sign=1.0):
    assert np.array_equal(a.beta, sign * b.beta)
    assert a.iterations == b.iterations
    assert a.converged == b.converged


def assert_identical_fits(a, b):
    """Every FitResult field equal bit for bit (so -0.0 differs from 0.0)."""
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), field.name
        elif isinstance(x, float):
            assert struct.pack("<d", x) == struct.pack("<d", y), field.name
        else:
            assert type(x) is type(y) and x == y, field.name


@SMALL
@given(problems())
def test_negating_y_negates_beta(case):
    prob, spec = case
    fit = fit_combined(prob, spec)
    flipped = fit_combined(replace(prob, y=-prob.y), spec)
    assert_same_fit(flipped, fit, sign=-1.0)


@SMALL
@given(problems(), st.data())
def test_negating_a_column_negates_its_coefficient(case, data):
    prob, spec = case
    j = data.draw(st.integers(0, prob.X.shape[1] - 1))
    X = prob.X.copy()
    X[:, j] = -X[:, j]
    fit = fit_combined(prob, spec)
    flipped = fit_combined(replace(prob, X=X), spec)
    sign = np.ones(X.shape[1])
    sign[j] = -1.0
    assert_same_fit(flipped, fit, sign=sign)


@SMALL
@given(problems(), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3, unique=True))
def test_path_fit_equals_fit_combined(case, levels):
    prob, spec = case
    grid = sorted(levels, reverse=True)
    init = np.zeros(prob.X.shape[1])
    path = fit_path(prob, spec, grid, init=init)
    # each path fit starts from the residual and gradient its predecessor
    # certified; a fresh fit recomputes them from the same beta
    for lam, fit in zip(grid, path.fits):
        direct = fit_combined(prob, replace(spec, lam=lam), init=init)
        assert_identical_fits(fit, direct)
        init = fit.beta


def test_each_path_fit_owns_its_beta():
    X, _ = standardize(gen_design(40, 30, 0.5, 11))
    y = X @ study_beta0(30) + 0.3 * np.random.default_rng(3).standard_normal(40)
    prob, spec = RegressionProblem(X, y), PenaltySpec("scad", 0.3, lambda0=0.05)
    init = fit_combined(prob, PenaltySpec("l1", 0.2)).beta
    kept = init.copy()
    path = fit_path(prob, spec, default_lambda_grid(X, y, 6, 0.05), init=init)
    betas = [fit.beta for fit in path.fits]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(betas + [init])
                   for b in betas[i + 1:])
    later = [beta.copy() for beta in betas]
    betas[0][:] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(betas[1:], later[1:]))
    assert np.array_equal(init, kept)
    # a single fit is the one-level path
    assert_identical_fits(fit_combined(prob, spec), fit_path(prob, spec, [spec.lam]).fits[0])


def unscreened_cd_fit(X, y, spec, init, tol=1e-7, max_iter=1000, gram_max=solver._GRAM_MAX):
    """The coordinate-descent engine without the zero-skip screen: every full
    sweep visits all p coordinates and the certificate checks all of them.
    An active set of at most gram_max coordinates sweeps by covariance updates
    on its Gram block and then catches the residual up with one product, as
    the engine does; gram_max=0 sweeps on the residual everywhere. The
    gradient is recomputed at every screen and at the end, which is what the
    engine's reuse after a level that changes nothing amounts to.
    Returns (beta, iterations, converged, kkt_inf, coordinatewise_global)."""
    n, p = X.shape
    Xf = np.asfortranarray(X)
    beta = np.zeros(p) if init is None else np.array(init, dtype=float)
    prox = scalar_prox.make_prox(spec)
    zthr = scalar_prox.zero_threshold(spec)
    r = y - Xf.dot(beta)

    def sweep(idx):
        nonlocal r
        delta = 0.0
        for j in idx:
            bj = beta[j]
            xj = Xf[:, j]
            nb = prox(float(xj.dot(r)) / n + bj)
            if nb != bj:
                r += xj * (bj - nb)
                beta[j] = nb
                delta = max(delta, abs(nb - bj))
        return delta

    def gram_sweep(idx, G, g):
        delta = 0.0
        for i, j in enumerate(idx):
            bj = float(beta[j])
            nb = prox(g[i] + bj)
            if nb != bj:
                step = nb - bj
                g[:] = [gk - step * c for gk, c in zip(g, G[i])]
                beta[j] = nb
                delta = max(delta, abs(step))
        return delta

    sweeps, converged = 0, False
    while sweeps < max_iter:
        grad = Xf.T.dot(r) / n
        active = np.flatnonzero((beta != 0.0) | (np.abs(grad + beta) > zthr)).tolist()
        if 0 < len(active) <= gram_max:
            XA = Xf[:, active]
            G, g, start = (XA.T.dot(XA) / n).tolist(), grad[active].tolist(), beta[active]
            while sweeps < max_iter:
                sweeps += 1
                if gram_sweep(active, G, g) < tol:
                    break
            r -= XA.dot(beta[active] - start)
        while len(active) > gram_max and sweeps < max_iter:
            sweeps += 1
            if sweep(active) < tol:
                break
        if sweeps >= max_iter:
            break
        sweeps += 1
        if sweep(range(p)) < tol:
            converged = True
            break
    r = y - Xf.dot(beta)
    grad = Xf.T.dot(r) / n
    cw_dev = max(abs(prox(float(grad[j]) + beta[j]) - beta[j]) for j in range(p))
    return (beta, sweeps, converged, float(np.max(np.abs(grad))),
            bool(converged and cw_dev < 10.0 * tol))


def assert_same_as_unscreened(fit, prob, spec, init):
    beta, iterations, converged, kkt_inf, cw_global = unscreened_cd_fit(
        prob.X, prob.y, spec, init)
    assert np.array_equal(fit.beta, beta)
    assert fit.iterations == iterations
    assert fit.converged == converged
    assert fit.coordinatewise_global == cw_global
    assert fit.kkt_inf == kkt_inf


@SMALL
@given(problems(wide=True))
def test_screened_fits_equal_unscreened_engine(case):
    prob, spec = case
    lasso = fit_combined(prob, PenaltySpec("l1", spec.lambda0 + spec.lam))
    assert_same_as_unscreened(lasso, prob, PenaltySpec("l1", 0.0, spec.lambda0 + spec.lam), None)
    fit = fit_combined(prob, spec, init=lasso.beta)
    assert_same_as_unscreened(fit, prob, spec, lasso.beta)


def test_screened_sica_path_equals_unscreened_engine(monkeypatch):
    n, p = 80, 200
    X, _ = standardize(gen_design(n, p, 0.5, 20240817))
    y = X @ study_beta0(p) + 0.25 * np.random.default_rng(7).standard_normal(n)
    lam0 = universal_lambda0(n, p, 0.25)
    spec = PenaltySpec("sica", 0.0, lambda0=lam0, shape=0.1)
    prob = RegressionProblem(X, y)
    lam_max = float(np.max(np.abs(X.T @ y)) / n)
    grid = combined_lambda_grid(spec, default_lambda_grid(X, y, 15, 0.05))

    calls = [0]
    make_prox = scalar_prox.make_prox

    def counting_make_prox(s):
        prox = make_prox(s)

        def counted(z):
            calls[0] += 1
            return prox(z)
        return counted

    init = fit_combined(prob, PenaltySpec("l1", 0.2 * lam_max)).beta
    monkeypatch.setattr(scalar_prox, "make_prox", counting_make_prox)
    path = fit_path(prob, spec, grid, init=init)
    screened_calls, calls[0] = calls[0], 0
    for lam, fit in zip(grid, path.fits):
        assert fit.coordinatewise_global
        assert_same_as_unscreened(fit, prob, replace(spec, lam=float(lam)), init)
        init = fit.beta
    # the screen skips most visits of the closing full sweeps and certificates
    assert screened_calls < 0.5 * calls[0]


@pytest.mark.parametrize("kind", KINDS)
def test_screen_accounts_for_changes_earlier_in_the_sweep(kind):
    # orthogonal +-1 patterns make a design where the closing full sweep moves
    # coordinate 0, and that move lifts |z_1| from 0.3, inside the zero zone
    # at the start of the sweep, past the threshold 0.5 before 1 is visited
    h1, h2, h3 = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1]])
    X = np.column_stack([(h2 - h1) / math.sqrt(2), (h3 - h2) / math.sqrt(2), h1])
    y = 2.0 * h1 + 2.5 * h2 + (2.5 + 0.3 * math.sqrt(2)) * h3
    spec = PenaltySpec(kind, 0.3, lambda0=0.2) if kind != "l1" else PenaltySpec("l1", 0.0, 0.5)
    prob = RegressionProblem(X, y)
    fit = fit_combined(prob, spec if kind != "l1" else PenaltySpec("l1", 0.5))
    assert_same_as_unscreened(fit, prob, spec, None)


def test_screen_guards_against_rounding_at_a_tiny_threshold():
    # x_0 is orthogonal to y and to the other columns, so n^-1 x_0'r is pure
    # rounding; with the L1 level between the matvec's and the dot product's
    # rounding of it, a screen without a rounding guard can skip a coordinate
    # that the unscreened engine moves
    n, p = 40, 4
    for seed in range(250):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, p + 1)))
        X = Q[:, :p] * math.sqrt(n)
        y = X[:, 1:] @ rng.standard_normal(p - 1) + 0.3 * math.sqrt(n) * Q[:, p]
        lam = 0.5 * (abs(float(X[:, 0] @ y)) + abs(float((X.T @ y)[0]))) / n
        init = np.linalg.lstsq(X, y, rcond=None)[0]
        init[0] = 0.0
        prob = RegressionProblem(X, y)
        fit = fit_combined(prob, PenaltySpec("l1", lam), init=init)
        assert_same_as_unscreened(fit, prob, PenaltySpec("l1", 0.0, lam), init)


@pytest.mark.parametrize("kind", KINDS)
def test_gram_and_residual_updates_give_the_same_path(kind):
    # the engine sweeps the desk path's small active sets by covariance
    # updates; the oracle at gram_max=0 sweeps every set on the residual.
    # The two round differently but make the same visits
    n, p = 80, 200
    X, _ = standardize(gen_design(n, p, 0.5, 20240817))
    prob = RegressionProblem(X, X @ study_beta0(p) + 0.25 * np.random.default_rng(7).standard_normal(n))
    spec = PenaltySpec(kind, 0.0, lambda0=universal_lambda0(n, p, 0.25))
    grid = combined_lambda_grid(spec, default_lambda_grid(prob.X, prob.y, 15, 0.05))
    init = None
    for fit in fit_path(prob, spec, grid).fits:
        beta, iterations, converged, _, cw_global = unscreened_cd_fit(
            prob.X, prob.y, fit.penalty, init, gram_max=0)
        assert fit.iterations == iterations
        assert np.array_equal(np.sign(fit.beta), np.sign(beta))
        assert fit.converged == converged and fit.coordinatewise_global == cw_global
        assert np.max(np.abs(fit.beta - beta)) <= 1e-12 * np.max(np.abs(beta))
        init = beta


def test_active_set_past_the_gram_cap_sweeps_on_the_residual():
    # a lasso from zero at 0.05 lambda_max on a 100 x 500 AR(1) design: its
    # first screen holds more coordinates than the cap, so it sweeps on the
    # residual, and the later, smaller screens by covariance updates
    n, p, rho = 100, 500, 0.5
    rng = np.random.default_rng(20240817)
    Z = rng.standard_normal((n, p))
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    for j in range(1, p):
        X[:, j] = rho * X[:, j - 1] + math.sqrt(1.0 - rho * rho) * Z[:, j]
    y = X @ study_beta0(p) + 0.25 * rng.standard_normal(n)
    X, _ = standardize(X)
    lam = 0.05 * float(np.max(np.abs(X.T @ y))) / n
    assert np.count_nonzero(np.abs(X.T @ y) / n > lam) > solver._GRAM_MAX
    prob = RegressionProblem(X, y)
    assert_same_as_unscreened(fit_combined(prob, PenaltySpec("l1", lam)), prob,
                              PenaltySpec("l1", 0.0, lam), None)


def test_first_default_level_is_an_exact_zero_at_lambda0_zero():
    # lambda_max = ||X'y/n||_inf can round either way in the dot products
    # the engine takes; the grid's lifted first level leaves no tie there
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(8, 60), rng.integers(2, 80)
        X, _ = standardize(rng.standard_normal((n, p)))
        y = rng.standard_normal(n) * 10**rng.uniform(-3, 3)
        prob, lasso_grid = RegressionProblem(X, y), default_lambda_grid(X, y)
        for kind in KINDS:
            spec = PenaltySpec(kind, 0.0)
            lam = float(combined_lambda_grid(spec, lasso_grid)[0])
            fit = fit_combined(prob, replace(spec, lam=lam))
            assert not fit.beta.any(), (seed, kind)
            assert fit.converged and fit.coordinatewise_global, (seed, kind)


@SMALL
@given(problems(), st.data())
def test_fits_accept_standardized_designs_and_name_an_off_norm_column(case, data):
    # a column off norm sqrt(n) by relative 1e-6 is named; one off by 1e-9
    # is within the fitters' tolerance, as is every standardize() output
    prob, spec = case
    fits = (lambda q: fit_combined(q, PenaltySpec("l1", 0.1)), lambda q: fit_combined(q, spec),
            lambda q: fit_path(q, spec, [1.0, 0.5]))
    j = data.draw(st.integers(0, prob.X.shape[1] - 1))
    near, off = prob.X.copy(), prob.X.copy()
    near[:, j] *= 1.0 + 1e-9
    off[:, j] *= 1.0 + 1e-6
    for fit in fits:
        fit(prob)
        fit(replace(prob, X=near))
        with pytest.raises(ValueError, match=f"column {j} has norm"):
            fit(replace(prob, X=off))


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(lambda wide: problems(wide=wide)),
       st.sampled_from(DEFAULT_C_GRID), st.floats(-3.0, 3.0))
def test_first_study_level_from_zero_is_exactly_zero(case, c, log_scale):
    # every study path starts from zero, which rests on this: at lambda0 > 0
    # the first level's zero threshold lambda0 + lambda_max exceeds every
    # |x_j'y|/n, so zero is the exact, certified fit there
    prob, spec = case
    n, p = prob.X.shape
    assume(p >= 2)  # universal_lambda0 needs two columns
    y = prob.y * 10.0**log_scale
    spec = replace(spec, lambda0=c * universal_lambda0(n, p, 1.0))
    lam = combined_lambda_grid(spec, default_lambda_grid(prob.X, y))[0]
    fit = fit_combined(RegressionProblem(prob.X, y), replace(spec, lam=float(lam)))
    assert not fit.beta.any()
    assert fit.converged and fit.coordinatewise_global


@st.composite
def lasso_permutations(draw):
    """A standardized design with n > p or n < p (8 <= n <= 59, p <= 79), a
    response scaled by 10^U(-2, 2), an l1 level between 0.05 and 0.95 of
    lambda_max and a column permutation, as (prob, spec, perm)."""
    n = draw(st.integers(8, 59))
    p = draw(st.integers(n + 1, 79) if draw(st.booleans()) else st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, _ = standardize(rng.standard_normal((n, p)))
    beta0 = rng.standard_normal(p) * (rng.random(p) < min(1.0, 5.0 / p))
    y = (X @ beta0 + 0.5 * rng.standard_normal(n)) * 10.0 ** draw(st.floats(-2.0, 2.0))
    lam = draw(st.floats(0.05, 0.95)) * float(np.max(np.abs(X.T @ y))) / n
    perm = np.array(draw(st.permutations(range(p))))
    return RegressionProblem(X, y), PenaltySpec("l1", lam), perm


@settings(max_examples=50, deadline=None)
@given(lasso_permutations())
def test_lasso_is_equivariant_under_column_permutation(case):
    # permuting the columns reorders every sum, so the two fits of the unique
    # lasso solution agree to within the tolerance, not bit for bit
    prob, spec, perm = case
    fit = fit_combined(prob, spec, tol=1e-12)
    moved = fit_combined(RegressionProblem(prob.X[:, perm], prob.y), spec, tol=1e-12)
    assert fit.converged and moved.converged
    want = fit.beta[perm]
    assert np.max(np.abs(moved.beta - want)) <= 1e-8 * max(1.0, float(np.max(np.abs(fit.beta))))
    assert np.array_equal(moved.beta != 0.0, want != 0.0)


def test_hypothesis_draws_no_literals_from_the_package_source():
    # conftest.py empties hypothesis's pool of literals scanned from local
    # modules, so editing a literal in the package cannot change the examples
    # these properties run
    from hypothesis.internal.conjecture import providers

    import l1concave  # noqa: F401 - every package module is loaded

    pool = providers._get_local_constants()
    assert not any(pool.set_for_type(t) for t in ("integer", "float", "bytes", "string"))
