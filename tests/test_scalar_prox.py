import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l1concave.penalty import (KINDS, PenaltySpec, check_shape_conditions, derivative_at_zero,
                               penalty_derivative)
from l1concave.scalar_prox import (ZERO_MARGIN, _real_cubic_roots, combined_objective,
                                   level_for_threshold, make_prox, prox_combined,
                                   prox_oracle, zero_threshold)


def random_spec(kind, rng):
    shape = {"scad": rng.uniform(2.1, 5.0), "mcp": rng.uniform(1.1, 4.0),
             "sica": rng.uniform(0.05, 2.0)}.get(kind)
    return PenaltySpec(kind, rng.uniform(0.05, 1.0), lambda0=rng.uniform(0.0, 0.5),
                       shape=shape)


def test_hard_closed_form_examples():
    p = PenaltySpec("hard", 0.5, lambda0=0.2)
    assert prox_combined(1.0, p) == 0.8
    assert prox_combined(0.6, p) == 0.0
    assert prox_combined(-1.0, p) == -0.8
    # the indicator is strict: the boundary goes to zero
    assert prox_combined(0.7, p) == 0.0
    assert prox_combined(0.7 + 1e-6, p) != 0.0


def test_l1_soft_threshold_example():
    p = PenaltySpec("l1", 0.0, lambda0=0.2)
    assert prox_combined(0.5, p) == pytest.approx(0.3, abs=1e-15)


def test_zero_input_and_errors():
    for kind in KINDS:
        p = PenaltySpec(kind, 0.4, lambda0=0.1)
        assert prox_combined(0.0, p) == 0.0
    with pytest.raises(ValueError):
        prox_combined(math.nan, PenaltySpec("hard", 0.5))
    with pytest.raises(ValueError):
        prox_oracle(math.inf, PenaltySpec("hard", 0.5))


def test_scad_example_matches_oracle():
    p = PenaltySpec("scad", 0.4, lambda0=0.1, shape=3.7)
    assert abs(prox_combined(1.5, p) - prox_oracle(1.5, p)) <= 1e-6


def test_oracle_at_zero():
    for kind in KINDS:
        p = PenaltySpec(kind, 0.4, lambda0=0.1)
        assert abs(prox_oracle(0.0, p)) <= 1e-9


def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for kind in KINDS:
        for _ in range(120):
            p = random_spec(kind, rng)
            z = rng.uniform(-3.0, 3.0)
            assert abs(prox_combined(z, p) - prox_oracle(z, p)) <= 1e-5


def test_odd_symmetry_exact():
    rng = np.random.default_rng(7)
    for kind in KINDS:
        p = random_spec(kind, rng)
        for _ in range(200):
            z = rng.uniform(0.0, 3.0)
            assert prox_combined(-z, p) == -prox_combined(z, p)


def test_shrinkage():
    rng = np.random.default_rng(8)
    for kind in KINDS:
        for _ in range(50):
            p = random_spec(kind, rng)
            z = rng.uniform(-3.0, 3.0)
            assert abs(prox_combined(z, p)) <= abs(z) + 1e-15


def test_monotone_in_z():
    rng = np.random.default_rng(9)
    for kind in KINDS:
        p = random_spec(kind, rng)
        zs = np.sort(rng.uniform(-3.0, 3.0, size=400))
        vals = [prox_combined(float(z), p) for z in zs]
        assert np.all(np.diff(vals) >= -1e-12)


def test_hard_thresholding_feature():
    # penalties passing the shape checks with their declared c1
    cases = [(PenaltySpec("hard", 0.5, lambda0=0.15), 0.0),
             (PenaltySpec("hard", 1.2, lambda0=0.0), 0.0),
             (PenaltySpec("sica", 1.5, lambda0=0.1, shape=0.1), 0.4)]
    rng = np.random.default_rng(10)
    for p, c1 in cases:
        assert check_shape_conditions(p, c1).passes
        for _ in range(400):
            b = prox_combined(rng.uniform(-4.0, 4.0), p)
            assert b == 0.0 or abs(b) > (1.0 - c1) * p.lam - 1e-9


def test_zero_threshold_exact():
    rng = np.random.default_rng(12)
    for kind in KINDS:
        for _ in range(30):
            p = random_spec(kind, rng)
            t = zero_threshold(p)
            prox = make_prox(p)
            assert prox(t * (1 - 1e-7)) == 0.0
            assert prox(t * (1 + 1e-7) + 1e-12) != 0.0


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def specs_any_scale(draw, kinds=KINDS):
    """A kind from kinds at log-uniform levels (lambda0 may be 0); sica draws
    its branch (2 lam (a+1) <= a^2, continuous entry, or > a^2, a jump)
    explicitly."""
    kind = draw(st.sampled_from(kinds))
    lambda0 = draw(st.just(0.0) | log_uniform(1e-6, 1e2))
    shape = None
    if kind == "sica":
        shape = draw(log_uniform(1e-3, 1e2))
        edge = shape * shape / (2.0 * (shape + 1.0))  # lam where the branches meet
        lam = edge * draw(st.one_of(log_uniform(1e-4, 1.0), log_uniform(1.0 + 1e-9, 1e4)))
    else:
        lam = draw(log_uniform(1e-6, 1e2))
        shape = {"scad": draw(log_uniform(2.0 + 1e-6, 50.0)),
                 "mcp": draw(log_uniform(1.0 + 1e-6, 50.0))}.get(kind)
    return PenaltySpec(kind, lam, lambda0=lambda0, shape=shape)


@settings(max_examples=300, deadline=None)
@given(specs_any_scale(), st.just(1.0) | st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]))
def test_prox_is_exactly_zero_inside_the_zero_zone(spec, u, sign):
    # the premise of the solver's zero-skip screen and certificate; u = 1,
    # the edge of the zone, is a branch of its own
    z = sign * u * zero_threshold(spec) * (1.0 - ZERO_MARGIN)
    assert make_prox(spec)(z) == 0.0


@settings(max_examples=500, deadline=None)
@given(specs_any_scale())
def test_zero_threshold_is_lambda0_plus_slope_at_zero(spec):
    # outside sica's jump regime the prox leaves zero where |z| reaches
    # lambda0 + p'(0+)
    a = spec.shape
    assume(spec.kind != "sica" or 2.0 * spec.lam * (a + 1.0) <= a * a)
    assert zero_threshold(spec) == spec.lambda0 + derivative_at_zero(spec)


@st.composite
def convex_piece_edges(draw):
    """A scad or mcp spec and a z within 1e-6 to 1e-16 (relative) of an edge
    of the closed form's pieces, on either side, with either sign."""
    spec = draw(specs_any_scale(kinds=("scad", "mcp")))
    lam, l0 = spec.lam, spec.lambda0
    edges = [l0 + lam, l0 + spec.shape * lam]
    if spec.kind == "scad":
        edges.append(l0 + 2.0 * lam)
    rel = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -draw(st.integers(6, 16))
    return spec, draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(edges)) * (1.0 + rel)


@settings(max_examples=1000, deadline=None)
@given(convex_piece_edges())
def test_convex_kinds_return_the_exact_minimizer(case):
    # scad (a > 2) and mcp (a > 1) make 0.5 (w - b)^2 + p(b) strictly convex,
    # so the prox must be its stationary point, checked against penalty.py's
    # own derivative, or zero exactly when w <= lam
    spec, z = case
    b = make_prox(spec)(z)
    w = abs(z) - spec.lambda0
    eps = np.finfo(float).eps
    if b == 0.0:
        assert w <= spec.lam * (1.0 + 4.0 * eps) + 4.0 * eps * abs(z)
    else:
        residual = abs(b) - w + penalty_derivative(spec, abs(b))
        assert abs(residual) <= 8.0 * eps * abs(z)


def test_level_for_threshold_inverts():
    rng = np.random.default_rng(13)
    for kind in KINDS:
        for _ in range(30):
            p = random_spec(kind, rng)
            tau = zero_threshold(p)
            lam = level_for_threshold(p, tau)
            assert lam == pytest.approx(p.lam, rel=1e-9, abs=1e-12)
    with pytest.raises(ValueError):
        level_for_threshold(PenaltySpec("hard", 0.5, lambda0=0.3), 0.2)


def test_cubic_roots_against_numpy():
    rng = np.random.default_rng(14)
    for _ in range(3000):
        b2, b1, b0 = rng.uniform(-5.0, 5.0, size=3)
        mine = _real_cubic_roots(b2, b1, b0)
        ref = [r.real for r in np.roots([1.0, b2, b1, b0]) if abs(r.imag) < 1e-9]
        for r in ref:
            scale = max(1.0, abs(r))
            assert min(abs(r - m) for m in mine) <= 1e-6 * scale


def test_combined_objective_vectorized():
    p = PenaltySpec("scad", 0.4, lambda0=0.1)
    betas = np.linspace(-2.0, 2.0, 9)
    vec = combined_objective(betas, 1.3, p)
    scal = [combined_objective(float(b), 1.3, p) for b in betas]
    assert vec == pytest.approx(scal, abs=0)
