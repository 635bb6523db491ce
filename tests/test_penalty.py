import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l1concave.penalty import (CHECK_DOMINATES_HARD, CHECK_THRESHOLD_DERIVATIVE,
                               KINDS, PenaltySpec, check_shape_conditions,
                               penalty_derivative, penalty_value, scalar_value)


def random_spec(kind, rng, lam=None):
    lam = rng.uniform(0.05, 2.0) if lam is None else lam
    shape = {"scad": rng.uniform(2.1, 6.0), "mcp": rng.uniform(1.1, 5.0),
             "sica": rng.uniform(0.05, 3.0)}.get(kind)
    return PenaltySpec(kind, lam, shape=shape)


def kink_points(p):
    if p.kind == "hard":
        return [p.lam]
    if p.kind == "scad":
        return [p.lam, p.shape * p.lam]
    if p.kind == "mcp":
        return [p.shape * p.lam]
    return []


def test_hard_value_paper_form():
    p = PenaltySpec("hard", 0.5)
    assert penalty_value(p, 0.25) == pytest.approx(0.09375, abs=0)
    assert penalty_value(p, 2.0) == pytest.approx(0.125, abs=0)  # plateau past lam


def test_value_zero_for_every_kind():
    rng = np.random.default_rng(0)
    for kind in KINDS:
        assert penalty_value(random_spec(kind, rng), 0.0) == 0.0


def test_scad_value_matches_derivative_quadrature():
    # independent oracle: integrate the standard three-piece scad derivative
    lam, a = 0.5, 3.7
    p = PenaltySpec("scad", lam, shape=a)
    ts = np.linspace(0.0, 10.0, 400_001)
    deriv = np.where(ts <= lam, lam, np.clip(a * lam - ts, 0.0, None) / (a - 1.0))
    integral = np.trapezoid(deriv, ts)
    assert integral == pytest.approx(0.5875, abs=1e-6)
    assert penalty_value(p, 10.0) == pytest.approx(0.5875, abs=1e-12)


def test_negative_t_rejected():
    p = PenaltySpec("mcp", 0.3)
    with pytest.raises(ValueError):
        penalty_value(p, -0.1)
    with pytest.raises(ValueError):
        penalty_value(p, np.array([0.1, -0.2]))


def test_derivative_examples_and_domain():
    p = PenaltySpec("hard", 0.5)
    assert penalty_derivative(p, 0.2) == pytest.approx(0.3, abs=0)
    assert penalty_derivative(p, 0.9) == 0.0  # plateau
    assert penalty_derivative(PenaltySpec("l1", 0.3), 1.0) == 0.3
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            penalty_derivative(p, bad)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for kind in KINDS:
        for _ in range(40):
            p = random_spec(kind, rng)
            kinks = kink_points(p)
            count = 0
            while count < 5:
                t = rng.uniform(1e-2, 1.3 * max(p.lam, (p.shape or 1.0) * p.lam, 0.1))
                if any(abs(t - k) < 1e-3 for k in kinks):
                    continue
                count += 1
                fd = (penalty_value(p, t + h) - penalty_value(p, t - h)) / (2 * h)
                d = penalty_derivative(p, t)
                assert abs(fd - d) <= 1e-6 * max(1.0, abs(d))


def test_value_monotone_concave_random():
    rng = np.random.default_rng(5)
    for kind in KINDS:
        for _ in range(20):
            p = random_spec(kind, rng)
            hi = 3.0 * max(p.lam, (p.shape or 1.0) * p.lam, 0.1)
            ts = np.linspace(0.0, hi, 801)
            vals = penalty_value(p, ts)
            assert np.all(np.diff(vals) >= -1e-12)
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second <= 1e-10)


def test_concavity_chord_invariant():
    rng = np.random.default_rng(17)
    for kind in KINDS:
        p = random_spec(kind, rng)
        for _ in range(200):
            t1, t2 = sorted(rng.uniform(0.0, 4.0 * max(p.lam, 0.1), size=2))
            th = rng.uniform(0.0, 1.0)
            mid = th * t1 + (1 - th) * t2
            lhs = penalty_value(p, mid)
            rhs = th * penalty_value(p, t1) + (1 - th) * penalty_value(p, t2)
            assert lhs >= rhs - 1e-10


def test_shape_checks_hard_passes_with_c1_zero():
    for lam in (0.1, 0.5, 2.0):
        rep = check_shape_conditions(PenaltySpec("hard", lam), 0.0)
        assert rep.passes and rep.failed_checks == ()


def test_shape_checks_l1_fails_via_threshold_derivative():
    lam = 0.3
    rep = check_shape_conditions(PenaltySpec("l1", lam), 0.0)
    assert not rep.passes
    assert CHECK_THRESHOLD_DERIVATIVE in {name for name, _ in rep.failed_checks}
    # oracle at t = lam/2: the linear penalty dominates the quadratic cap,
    # so the domination check itself is satisfied
    assert lam * (lam / 2) >= float(penalty_value(PenaltySpec("hard", lam), lam / 2))
    assert CHECK_DOMINATES_HARD not in {name for name, _ in rep.failed_checks}


def test_shape_checks_scad_fails_threshold_derivative():
    p = PenaltySpec("scad", 0.5, shape=3.7)
    rep = check_shape_conditions(p, 0.0)
    assert not rep.passes
    names = {name for name, _ in rep.failed_checks}
    assert names == {CHECK_THRESHOLD_DERIVATIVE}
    assert penalty_derivative(p, 0.5) == 0.5  # p'(lam) = lam > 0


def test_shape_checks_sica_passes_with_suitable_c1():
    rep = check_shape_conditions(PenaltySpec("sica", 1.5, shape=0.1), 0.4)
    assert rep.passes


def test_shape_checks_mcp_fails_only_threshold_derivative():
    # p'((1 - c1) lam) = lam - (1 - c1) lam / a exceeds c1 lam for every a > 1,
    # while mcp's -p'' = 1/a is constant below a lam
    lam, c1 = 1.0, 0.5
    rep = check_shape_conditions(PenaltySpec("mcp", lam, shape=3.0), c1)
    assert rep.failed_checks == ((CHECK_THRESHOLD_DERIVATIVE, (1.0 - c1) * lam),)


def test_shape_checks_sica_with_a_large_level_fails_domination_of_hard():
    rep = check_shape_conditions(PenaltySpec("sica", 3.0, shape=0.1), 0.5)
    assert [name for name, _ in rep.failed_checks] == [CHECK_DOMINATES_HARD]
    assert rep.failed_checks[0][1] == pytest.approx(1.306, abs=1e-3)
    assert check_shape_conditions(PenaltySpec("sica", 2.0, shape=0.1), 0.5).passes


def test_shape_checks_validation():
    p = PenaltySpec("hard", 0.5)
    with pytest.raises(ValueError):
        check_shape_conditions(p, 1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec("scad", 0.5, shape=2.0)
    with pytest.raises(ValueError):
        PenaltySpec("mcp", 0.5, shape=1.0)
    with pytest.raises(ValueError):
        PenaltySpec("sica", 0.5, shape=0.0)
    with pytest.raises(ValueError):
        PenaltySpec("hard", -0.1)
    with pytest.raises(ValueError):
        PenaltySpec("huber", 0.1)
    for bad in (dict(lam=math.inf), dict(lam=math.nan), dict(lam=0.1, lambda0=math.inf),
                dict(lam=0.1, lambda0=math.nan)):
        with pytest.raises(ValueError, match="finite"):
            PenaltySpec("hard", **bad)
    for kind in ("scad", "mcp", "sica"):
        with pytest.raises(ValueError, match="finite shape"):
            PenaltySpec(kind, 0.5, shape=math.inf)
    assert PenaltySpec("scad", 0.5).shape == 3.7
    assert PenaltySpec("mcp", 0.5).shape == 3.0
    assert PenaltySpec("sica", 0.5).shape == 0.1


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(31)
    for kind in KINDS:
        p = random_spec(kind, rng)
        ts = rng.uniform(0.0, 3.0, size=50)
        vec = penalty_value(p, ts)
        assert vec == pytest.approx([penalty_value(p, float(t)) for t in ts], abs=0)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def specs_and_points(draw):
    # t at 0, at a piece edge (lam, 2 lam, a lam) times 1 +- 10^-k, or
    # anywhere from 1e-16 lam to 1e6 lam; t << lam makes hard's lam^2 - c^2
    # cancel, which shows a one-ulp difference in c^2
    kind = draw(st.sampled_from(KINDS))
    lam = draw(st.just(0.0) | log_uniform(1e-8, 1e4))
    shape = {"scad": st.floats(2.0 + 1e-9, 50.0), "mcp": st.floats(1.0 + 1e-9, 50.0),
             "sica": log_uniform(1e-4, 1e2)}.get(kind)
    p = PenaltySpec(kind, lam, shape=None if shape is None else draw(shape))
    a = 1.0 if math.isnan(p.shape) else p.shape
    edge = draw(st.sampled_from([lam, 2.0 * lam, a * lam]))
    rel = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** -draw(st.integers(1, 16))
    t = draw(st.just(0.0) | st.just(edge * (1.0 + rel)) | log_uniform(1e-16, 1e6).map(
        lambda u: u * max(lam, 1e-300)))
    return p, t


@settings(max_examples=1000, deadline=None)
@given(specs_and_points())
# numpy's scalar c**2 is one ulp off c * c here, and lam^2 - c^2 cancels
@example((PenaltySpec("hard", 798.0232418909301), 7.980232418909301e-10))
def test_scalar_value_equals_penalty_value_bit_for_bit(case):
    p, t = case
    v = scalar_value(p)(t)
    assert type(v) is float
    assert v == penalty_value(p, t) == penalty_value(p, np.array([t]))[0]
