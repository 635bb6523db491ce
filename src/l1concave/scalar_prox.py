"""Global minimizer of the univariate combined-penalty problem.

For a scalar target z the coordinate subproblem is

    minimize over b:  0.5 * (z - b)^2 + lambda0 * |b| + p(|b|),

with p the concave component of a PenaltySpec. The solution is computed
exactly. Soft thresholding by lambda0 leaves w = |z| - lambda0 and the
concave kind's own thresholding problem 0.5 (w - b)^2 + p(b), which has a
closed form for l1 and hard, and for scad (a > 2) and mcp (a > 1), where it
is strictly convex (Fan & Li 2001; Breheny & Huang 2011). For sica the one
interior local minimizer, a root of a cubic, is compared against zero.
"""

from __future__ import annotations

import math

from .penalty import PenaltySpec, derivative_at_zero, scalar_value

_TWO_THIRDS_PI, _FOUR_THIRDS_PI = 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0


def _largest_cubic_root(b2: float, b1: float, b0: float, lo: float, hi: float) -> float | None:
    """The largest real root in [lo, hi] of t^3 + b2 t^2 + b1 t + b0, or None
    if it has none there (Cardano / trigonometric form)."""
    shift = b2 / 3.0
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = 0.25 * q * q + p**3 / 27.0
    if disc > 0.0:
        s, h = math.sqrt(disc), -0.5 * q
        u = math.copysign(abs(h + s) ** (1.0 / 3.0), h + s)
        v = math.copysign(abs(h - s) ** (1.0 / 3.0), h - s)
        t = u + v - shift
        return t if lo <= t <= hi else None
    if p >= 0.0:
        # disc <= 0 with p >= 0 forces p = q = 0: triple root
        return -shift if lo <= -shift <= hi else None
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = (arg if arg < 1.0 else 1.0) if arg > -1.0 else -1.0  # min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    # t0 >= t1 >= t2 in exact arithmetic, but rounding can break ties either
    # way, so compare them as max() over the list [t0, t1, t2] would
    t0 = m * math.cos(theta) - shift
    t1 = m * math.cos(theta - _TWO_THIRDS_PI) - shift
    t2 = m * math.cos(theta - _FOUR_THIRDS_PI) - shift
    top = t0 if lo <= t0 <= hi else None
    if lo <= t1 <= hi and (top is None or t1 > top):
        top = t1
    if lo <= t2 <= hi and (top is None or t2 > top):
        top = t2
    return top


def make_prox(p: PenaltySpec):
    """Build a fast scalar callable returning the global minimizer for this penalty.

    The returned function closes over plain floats so it is cheap enough for
    the coordinate-descent inner loop. l1, hard, scad and mcp return their
    closed forms, which hold where the subproblem is convex or its minimizer
    is known; sica compares its one interior local minimizer against zero,
    with a bisection fallback. Ties resolve to zero (the sparser solution).
    """
    lam, l0, a = p.lam, p.lambda0, p.shape

    if p.kind in ("l1", "hard"):
        # sgn(z) (|z| - shift) 1{|z| > lambda0 + lam}, shift = lambda0 + lam
        # for l1 (soft) and lambda0 for hard; a tie goes to zero (strict >)
        thr = l0 + lam
        shift = thr if p.kind == "l1" else l0

        def prox(z: float) -> float:
            az = abs(z)
            return math.copysign(az - shift, z) if az > thr else 0.0

        return prox

    if p.kind == "scad":
        alam = a * lam

        def prox(z: float) -> float:
            az = abs(z)
            if az == 0.0:
                return 0.0
            w = az - l0
            # soft threshold up to 2 lam, the strictly convex (a > 2) middle
            # piece clamped to [lam, alam], no shrinkage beyond alam
            if w <= 2.0 * lam:
                b = max(w - lam, 0.0)
            elif w <= alam:
                b = min(max(((a - 1.0) * w - alam) / (a - 2.0), lam), alam)
            else:
                b = w
            return math.copysign(b, z)

        return prox

    if p.kind == "mcp":
        alam = a * lam

        def prox(z: float) -> float:
            az = abs(z)
            if az == 0.0:
                return 0.0
            w = az - l0
            # firm thresholding; strictly convex for a > 1
            if w <= lam:
                b = 0.0
            elif w <= alam:
                b = min((w - lam) * a / (a - 1.0), alam)
            else:
                b = w
            return math.copysign(b, z)

        return prox

    # sica: stationary points solve (b - w)(a + b)^2 + lam a (a+1) = 0, a cubic.
    # p''' > 0 makes q'(b) = b - w + p'(b) strictly convex on [0, inf), so the
    # largest stationary point is the only local minimizer in (0, |z|]; the
    # candidate b beats zero when q(b) = 0.5 (|z| - b)^2 + lambda0 b + p(b)
    # is below q(0), and q'(b) = b - w + coef / (a + b)^2
    coef = lam * a * (a + 1.0)
    pval, coef2, a2, aa = scalar_value(p), 2.0 * coef, 2.0 * a, a * a
    deriv0 = coef / (a * a)  # p'(0+)

    def prox(z: float) -> float:
        az = abs(z)
        if az == 0.0:
            return 0.0
        w = az - l0
        q0 = 0.5 * az ** 2  # q(0)
        best = 0.0
        b = _largest_cubic_root(a2 - w, aa - a2 * w, coef - w * a * a,
                                -1e-12, az * (1.0 + 1e-12) + 1e-300)
        if b is not None:
            # clamp to [0, |z|] as min(max(b, 0.0), az) would, without the calls
            b = 0.0 if 0.0 > b else az if az < b else b
            for _ in range(2):  # Newton polish on q'(b)
                h = 1.0 - coef2 / (a + b) ** 3
                if h <= 1e-12:
                    break
                b -= (b - w + coef / (a + b) ** 2) / h
                b = 0.0 if 0.0 > b else az if az < b else b
            if 0.5 * (az - b) ** 2 + l0 * b + pval(b) < q0:
                best = b
        if best == 0.0 and w > deriv0:
            # zero is not even locally optimal, so a stationary point in
            # (0, w) exists; the cubic solver can miss it next to a double
            # root, where bisection on q' recovers it to machine precision
            lo, hi = 0.0, w
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if mid - w + coef / (a + mid) ** 2 < 0.0:
                    lo = mid
                else:
                    hi = mid
            if 0.5 * (az - lo) ** 2 + l0 * lo + pval(lo) < q0:
                best = lo
        return math.copysign(best, z)

    return prox


def prox_combined(z: float, p: PenaltySpec) -> float:
    """Global minimizer of 0.5 (z - b)^2 + lambda0 |b| + p(|b|).

    Odd in z; output magnitude never exceeds |z|; exact ties go to zero.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    return make_prox(p)(z)


# relative margin below zero_threshold inside which every scalar prox returns
# exactly 0.0; near the threshold sica's comparison of its candidate against
# zero can round either way
ZERO_MARGIN = 1e-9


def zero_threshold(p: PenaltySpec) -> float:
    """The threshold t at which the prox leaves zero, in exact arithmetic.

    In floating point, prox_combined(z, p) = 0.0 exactly for all
    |z| <= t * (1 - ZERO_MARGIN). Only sica needs that margin: l1 and hard
    return 0.0 up to |z| = t, and scad and mcp up to t * (1 - eps), where
    only the rounding of |z| - lambda0 separates them from t; for sica a
    rounded tie near t may go either way. t = lambda0 + lam for
    l1/hard/scad/mcp. For sica the minimizer jumps: the tie between zero
    and the interior stationary point happens at lambda0 + sqrt(2 lam (a+1))
    - a/2 once 2 lam (a+1) > a^2, and entry is continuous at
    lambda0 + lam (a+1)/a below that. Everywhere but in that jump regime,
    t = lambda0 + p'(0+) (derivative_at_zero). Used for screening in the
    coordinate-descent solver.
    """
    if p.kind == "sica":
        a = p.shape
        two_lc = 2.0 * p.lam * (a + 1.0)
        if two_lc > a * a:
            return p.lambda0 + math.sqrt(two_lc) - 0.5 * a
    return p.lambda0 + derivative_at_zero(p)


def level_for_threshold(p: PenaltySpec, tau: float) -> float:
    """Concave level lam making zero_threshold equal tau; inverse of the above.

    Lets callers build level grids that sweep the selection threshold
    uniformly across penalty kinds (a level grid geometric in lam itself
    would sweep wildly different thresholds for sica than for hard).
    """
    d = tau - p.lambda0
    if d <= 0.0:
        raise ValueError("threshold must exceed lambda0")
    if p.kind in ("l1", "hard", "scad", "mcp"):
        return d
    a = p.shape
    if d <= 0.5 * a:
        return a * d / (a + 1.0)
    return (d + 0.5 * a) ** 2 / (2.0 * (a + 1.0))

