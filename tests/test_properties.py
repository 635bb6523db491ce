"""Exact invariances of the coordinate-descent fits, checked with hypothesis.

Every property must hold bit for bit, including the number of sweeps: the
solver's arithmetic is symmetric under each transformation, so any
difference is a bug rather than rounding.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from l1concave.penalty import KINDS, PenaltySpec
from l1concave.solver import RegressionProblem, fit_combined, fit_path, standardize

SHAPES = {"scad": (2.1, 5.0), "mcp": (1.1, 4.0), "sica": (0.05, 2.0)}

SMALL = settings(max_examples=25, deadline=None)


@st.composite
def problems(draw):
    """A standardized problem with n <= 30, p <= 12 and a penalty of any kind."""
    n = draw(st.integers(5, 30))
    p = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(KINDS))
    lo, hi = SHAPES.get(kind, (0.0, 0.0))
    shape = draw(st.floats(lo, hi)) if kind in SHAPES else None
    spec = PenaltySpec(kind, draw(st.floats(0.0, 1.0)), lambda0=draw(st.floats(0.0, 0.5)),
                       shape=shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, _ = standardize(rng.standard_normal((n, p)))
    beta0 = rng.standard_normal(p) * (rng.random(p) < 0.5)
    y = X @ beta0 + 0.5 * rng.standard_normal(n)
    return RegressionProblem(X, y, penalty=spec, standardized=True)


def assert_same_fit(a, b, sign=1.0):
    assert np.array_equal(a.beta, sign * b.beta)
    assert a.iterations == b.iterations
    assert a.converged == b.converged


@SMALL
@given(problems())
def test_negating_y_negates_beta(prob):
    fit = fit_combined(prob)
    flipped = fit_combined(replace(prob, y=-prob.y))
    assert_same_fit(flipped, fit, sign=-1.0)


@SMALL
@given(problems(), st.data())
def test_negating_a_column_negates_its_coefficient(prob, data):
    j = data.draw(st.integers(0, prob.X.shape[1] - 1))
    X = prob.X.copy()
    X[:, j] = -X[:, j]
    fit = fit_combined(prob)
    flipped = fit_combined(replace(prob, X=X))
    sign = np.ones(X.shape[1])
    sign[j] = -1.0
    assert_same_fit(flipped, fit, sign=sign)


@SMALL
@given(problems(), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3, unique=True))
def test_path_fit_equals_fit_combined(prob, levels):
    grid = sorted(levels, reverse=True)
    init = np.zeros(prob.X.shape[1])
    path = fit_path(prob, grid, init=init)
    for lam, fit in zip(grid, path.fits):
        direct = fit_combined(replace(prob, penalty=replace(prob.penalty, lam=lam)), init=init)
        assert_same_fit(fit, direct)
        init = fit.beta
