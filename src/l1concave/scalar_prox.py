"""Global minimizer of the univariate combined-penalty problem.

For a scalar target z the coordinate subproblem is

    minimize over b:  0.5 * (z - b)^2 + lambda0 * |b| + p(|b|),

with p the concave component of a PenaltySpec. The solution is computed
exactly. Soft thresholding by lambda0 leaves w = |z| - lambda0 and the
concave kind's own thresholding problem 0.5 (w - b)^2 + p(b), which has a
closed form for l1 and hard, and for scad (a > 2) and mcp (a > 1), where it
is strictly convex (Fan & Li 2001; Breheny & Huang 2011). For sica Newton's
method on the derivative, started at w, finds the one interior local
minimizer, which is then compared against zero.
"""

from __future__ import annotations

import math

from .penalty import PenaltySpec, derivative_at_zero, scalar_value

# cap on the sica prox's Newton steps: q'' is concave (p'''' < 0), so each step
# at least halves b's distance to the root below it, and 64 halvings cover
# the 53 bits of w. Measured: at most 11 steps on random targets and 29 next
# to a double root, where the rate falls to that halving
_SICA_NEWTON_STEPS = 64


def make_prox(p: PenaltySpec):
    """Build a fast scalar callable returning the global minimizer for this penalty.

    The returned function closes over plain floats so it is cheap enough for
    the coordinate-descent inner loop. l1, hard, scad and mcp return their
    closed forms, which hold where the subproblem is convex or its minimizer
    is known; sica finds its one interior local minimizer by Newton's method
    and compares it against zero. Ties resolve to zero (the sparser solution).
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

    # sica: q'(b) = b - w + p'(b), with p'(b) = coef / (a + b)^2, is strictly
    # convex on [0, inf) (p''' > 0) and positive at b = w, so Newton's method
    # started at w falls monotonically onto the largest root of q', the only
    # local minimizer in (0, w). Meeting q'' <= 0 or b <= 0 first means q' has
    # no root below, and zero is the minimizer. For w > p'(0+) zero is not even
    # a local minimizer, so the root is taken; otherwise it must beat q(0),
    # with q(b) = 0.5 (|z| - b)^2 + lambda0 b + p(b)
    coef = lam * a * (a + 1.0)
    pval, coef2, deriv0 = scalar_value(p), 2.0 * coef, derivative_at_zero(p)

    def prox(z: float) -> float:
        az = abs(z)
        b = w = az - l0
        for _ in range(_SICA_NEWTON_STEPS):
            if b <= 0.0:
                break
            t = a + b
            t2 = t * t
            h = 1.0 - coef2 / (t2 * t)
            if h <= 0.0:
                b = 0.0
                break
            nb = b - (b - w + coef / t2) / h
            if not nb < b:  # the step no longer lowers b
                break
            b = nb
        if b > 0.0 and (w > deriv0 or 0.5 * (az - b) ** 2 + l0 * b + pval(b) < 0.5 * az ** 2):
            return math.copysign(b, z)
        return math.copysign(0.0, z)

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

