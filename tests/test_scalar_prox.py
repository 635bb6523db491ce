import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from l1concave.penalty import (KINDS, PenaltySpec, check_shape_conditions, derivative_at_zero,
                               penalty_derivative)
from l1concave.scalar_prox import (ZERO_MARGIN, level_for_threshold, make_prox, prox_combined,
                                   zero_threshold)
from oracles import combined_objective, prox_oracle


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
    # 0.2 + 0.3 is exactly 0.5: exact values, and the boundary goes to zero
    p = PenaltySpec("l1", 0.3, lambda0=0.2)
    assert prox_combined(1.0, p) == 0.5
    assert prox_combined(-1.0, p) == -0.5
    assert prox_combined(0.5, p) == 0.0
    assert math.copysign(1.0, prox_combined(-0.5, p)) == 1.0  # +0.0: not a shrunk -0.0
    assert prox_combined(0.5 + 1e-6, p) != 0.0


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


def _frozen_cubic_roots(b2, b1, b0, taken):
    """The cubic solver of the reference sica prox below; adds the branch it
    takes to the set taken."""
    shift = b2 / 3.0
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = 0.25 * q * q + p**3 / 27.0
    if disc > 0.0:
        taken.add("one root")
        s = math.sqrt(disc)
        u = math.copysign(abs(-0.5 * q + s) ** (1.0 / 3.0), -0.5 * q + s)
        v = math.copysign(abs(-0.5 * q - s) ** (1.0 / 3.0), -0.5 * q - s)
        return [u + v - shift]
    if p >= 0.0:
        taken.add("triple root")
        return [-shift]
    taken.add("three roots")
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    return [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift for k in range(3)]


def frozen_sica_prox(lam, l0, a, z, taken):
    """The reference sica prox: the Cardano solver, two Newton polish steps
    and a bisection fallback that the package used before Newton's method
    from w replaced them, with q, p' and p as closures; adds the branches it
    takes to the set taken."""
    coef = lam * a * (a + 1.0)
    c = lam * (a + 1.0)

    def pval(t):
        return c * t / (a + t)

    def pderiv(b):
        return coef / (a + b) ** 2

    def q(az, b):
        return 0.5 * (az - b) ** 2 + l0 * b + pval(b)

    deriv0 = coef / (a * a)
    az = abs(z)
    if az == 0.0:
        return 0.0
    w = az - l0
    q0 = q(az, 0.0)
    best = 0.0
    roots = [r for r in _frozen_cubic_roots(2.0 * a - w, a * a - 2.0 * a * w,
                                            coef - w * a * a, taken)
             if -1e-12 <= r <= az * (1.0 + 1e-12) + 1e-300]
    if roots:
        b = min(max(max(roots), 0.0), az)
        for _ in range(2):
            g = b - w + pderiv(b)
            h = 1.0 - 2.0 * coef / (a + b) ** 3
            if h <= 1e-12:
                break
            b = min(max(b - g / h, 0.0), az)
        if q(az, b) < q0:
            best = b
    if best == 0.0 and w > deriv0:
        taken.add("bisection")
        lo, hi = 0.0, w
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if mid - w + pderiv(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        if q(az, lo) < q0:
            best = lo
    return math.copysign(best, z)


EPS = np.finfo(float).eps


def sica_objective_excess(lam, l0, a, z, b1, b2):
    """q(b1) - q(b2) for q(b) = 0.5 (z - b)^2 + lambda0 |b| + p(|b|), sica's
    p(t) = c t / (a + t), c = lam (a + 1), and b1, b2 of z's sign or zero. In
    the factored form d (0.5 (|b1| + |b2|) - |z| + lambda0) + c a d / ((a +
    |b1|) (a + |b2|)), d = |b1| - |b2|, no two nearly equal objectives are
    subtracted, so the float result keeps the exact difference's scale."""
    m1, m2 = abs(b1), abs(b2)
    d, c = m1 - m2, lam * (a + 1.0)
    return d * (0.5 * (m1 + m2) - abs(z) + l0) + c * a * d / ((a + m1) * (a + m2))


def assert_agrees_in_objective(lam, l0, a, z, want):
    """The sica prox's objective q at z exceeds q at the reference's result
    want by at most 4 eps q(0), q(0) = z^2 / 2. Objectives, not arguments:
    next to a double root of q' q is flat to third order, and the two roots
    differ by up to about 1e-7 |z| while their objectives agree to rounding."""
    spec = PenaltySpec("sica", lam, lambda0=l0, shape=a)
    got = make_prox(spec)(z)
    for b in (got, want):
        assert b == 0.0 or math.copysign(1.0, b) == math.copysign(1.0, z)
    assert sica_objective_excess(lam, l0, a, z, got, want) <= 4.0 * EPS * 0.5 * z * z


@st.composite
def sica_cases(draw):
    """(lam, lambda0, shape, z) aimed at every branch of the reference: plain
    draws take the one-root and three-root branches; lam = 0 with
    |z| - lambda0 = -a on dyadic values makes the cubic a triple root exactly;
    lam next to a^2 / (2 (a + 1)) with |z| - lambda0 just above p'(0+) puts a
    double root near zero, which the cubic solver can miss, so that bisection
    takes over."""
    family = draw(st.sampled_from(("plain", "triple", "double")))
    sign = draw(st.sampled_from((1.0, -1.0)))
    if family == "plain":
        return (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5)), draw(st.floats(0.05, 2.0)),
                sign * draw(st.floats(0.0, 3.0)))
    if family == "triple":
        a, t = draw(st.integers(1, 16)) / 8.0, draw(st.integers(1, 16)) / 8.0
        return 0.0, a + t, a, sign * t
    a, l0 = draw(st.floats(0.05, 2.0)), draw(st.floats(0.0, 0.5))
    lam = a * a / (2.0 * (a + 1.0)) * (1.0 + draw(st.floats(-1.0, 1.0))
                                       * 10.0 ** -draw(st.floats(2.0, 16.0)))
    w = lam * (a + 1.0) / a * (1.0 + 10.0 ** -draw(st.floats(2.0, 16.0)))
    return lam, l0, a, sign * (w + l0)


@settings(max_examples=600, deadline=None)
@given(sica_cases())
def test_sica_prox_equals_its_frozen_copy_in_objective(case):
    lam, l0, a, z = case
    taken = set()
    want = frozen_sica_prox(lam, l0, a, z, taken)
    for branch in sorted(taken):
        event(branch)
    assert_agrees_in_objective(lam, l0, a, z, want)


@pytest.mark.parametrize("branch, case", [
    ("one root", (0.8132702392002724, 0.45637778863886086, 1.2329397627460008, 1.3769793659039902)),
    ("three roots", (0.6369616873214543, 0.13489335688193516, 0.1298983716755797, -2.900834186828825)),
    ("triple root", (0.0, 0.75, 0.5, -0.25)),
    ("bisection", (0.20434077033667025, 0.4138512969102209, 0.8754865754965225, 0.8515945842652483)),
])
def test_sica_prox_equals_its_frozen_copy_on_every_branch(branch, case):
    # equal in objective, as assert_agrees_in_objective states
    lam, l0, a, z = case
    taken = set()
    want = frozen_sica_prox(lam, l0, a, z, taken)
    assert branch in taken
    assert_agrees_in_objective(lam, l0, a, z, want)


@st.composite
def sica_above_slope_at_zero(draw):
    """A sica spec at any scale and a z with |z| - lambda0 above p'(0+), from
    just above (1e-16 relative) to 1e4 times it, with either sign."""
    spec = draw(specs_any_scale(kinds=("sica",)))
    u = draw(st.one_of(st.floats(0.0, 16.0).map(lambda e: 1.0 + 10.0 ** -e), log_uniform(1.0, 1e4)))
    z = draw(st.sampled_from([1.0, -1.0])) * (spec.lambda0 + derivative_at_zero(spec) * u)
    return spec, z


def assert_sica_stationary_above_slope_at_zero(spec, z):
    """Where w = |z| - lambda0 exceeds p'(0+), zero is not a local minimizer
    and the prox must return a root of q'(b) = b - w + p'(b): nonzero, of z's
    sign, at most w, with |q'(|b|)| at most 8 eps |z|. Only where w exceeds
    p'(0+) by no more than that rounding bound may it return zero, which is
    then itself stationary to within it (q'(0+) = p'(0+) - w)."""
    w, slope = abs(z) - spec.lambda0, derivative_at_zero(spec)
    assert w > slope
    b = make_prox(spec)(z)
    bound = 8.0 * EPS * abs(z)
    if b == 0.0:
        assert w - slope <= bound
    else:
        assert math.copysign(1.0, b) == math.copysign(1.0, z) and abs(b) <= w
        assert abs(abs(b) - w + penalty_derivative(spec, abs(b))) <= bound


@settings(max_examples=1000, deadline=None)
@given(sica_above_slope_at_zero())
def test_sica_prox_is_a_root_of_q_prime_above_the_slope_at_zero(case):
    spec, z = case
    assume(abs(z) - spec.lambda0 > derivative_at_zero(spec))
    assert_sica_stationary_above_slope_at_zero(spec, z)


def test_sica_prox_leaves_zero_next_to_a_double_root():
    # at 2 lam (a + 1) = a^2 q' has a double root at 0 when w = p'(0+); just
    # above it the minimizer is 1.8257441561e-06 (50 digits of mpmath), which
    # the cubic solver and its bisection fallback turned into 0.0
    spec, z = PenaltySpec("sica", 0.25, lambda0=0.0, shape=1.0), 0.500000000005
    assert_sica_stationary_above_slope_at_zero(spec, z)
    b = make_prox(spec)(z)
    assert b > 0.0 and abs(b - 1.8257441561059281e-06) <= 1e-5 * b


def test_combined_objective_vectorized():
    p = PenaltySpec("scad", 0.4, lambda0=0.1)
    betas = np.linspace(-2.0, 2.0, 9)
    vec = combined_objective(betas, 1.3, p)
    scal = [combined_objective(float(b), 1.3, p) for b in betas]
    assert vec == pytest.approx(scal, abs=0)
