"""Global minimizer of the univariate combined-penalty problem.

For a scalar target z the coordinate subproblem is

    minimize over b:  0.5 * (z - b)^2 + lambda0 * |b| + p(|b|),

with p the concave component of a PenaltySpec. The solution is computed
exactly: a closed form for the hard kind, soft thresholding for the l1 kind,
and candidate enumeration over the finitely many stationary points of the
piecewise-smooth objective otherwise. A brute-force grid-search oracle is
provided for testing.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .penalty import PenaltySpec, penalty_value

_CHUNK = 8192
_FINE_N = 1025  # points in the rescan of the winning cell
_UNIT_GRIDS: dict[int, np.ndarray] = {}


def _unit_grid(grid_n: int) -> np.ndarray:
    grid = _UNIT_GRIDS.get(grid_n)
    if grid is None:
        grid = np.linspace(-1.0, 1.0, grid_n)
        grid.setflags(write=False)
        _UNIT_GRIDS[grid_n] = grid
    return grid


def combined_objective(beta, z: float, p: PenaltySpec):
    """0.5 * (z - beta)^2 + lambda0 * |beta| + p(|beta|); vectorized in beta."""
    b = np.abs(np.asarray(beta, dtype=float))
    out = 0.5 * (z - np.asarray(beta, dtype=float)) ** 2 + p.lambda0 * b + penalty_value(p, b)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _best(cands, q):
    # smallest objective; exact ties resolve to the smallest magnitude
    best_b, best_q = 0.0, q(0.0)
    for b in sorted(set(cands)):
        if b <= 0.0:
            continue
        qb = q(b)
        if qb < best_q:
            best_b, best_q = b, qb
    return best_b


def _real_cubic_roots(b2: float, b1: float, b0: float) -> list[float]:
    """Real roots of t^3 + b2 t^2 + b1 t + b0 (Cardano / trigonometric form)."""
    shift = b2 / 3.0
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = 0.25 * q * q + p**3 / 27.0
    if disc > 0.0:
        s = math.sqrt(disc)
        u = math.copysign(abs(-0.5 * q + s) ** (1.0 / 3.0), -0.5 * q + s)
        v = math.copysign(abs(-0.5 * q - s) ** (1.0 / 3.0), -0.5 * q - s)
        return [u + v - shift]
    if p >= 0.0:
        # disc <= 0 with p >= 0 forces p = q = 0: triple root
        return [-shift]
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    theta = math.acos(arg) / 3.0
    return [m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift for k in range(3)]


@lru_cache(maxsize=256)
def make_prox(p: PenaltySpec):
    """Build a fast scalar callable returning the global minimizer for this penalty.

    The returned function closes over plain floats so it is cheap enough for
    the coordinate-descent inner loop. For every kind it computes the exact
    global minimizer: ties resolve to zero (the sparser solution).
    """
    lam, l0, a = p.lam, p.lambda0, p.shape

    if p.kind == "l1":
        thr = l0 + lam

        def prox(z: float) -> float:
            az = abs(z)
            return math.copysign(az - thr, z) if az > thr else 0.0

        return prox

    if p.kind == "hard":
        thr = lam + l0

        def prox(z: float) -> float:
            # sgn(z) (|z| - lambda0) 1{|z| > lam + lambda0}; tie at the
            # boundary goes to zero (the indicator is strict)
            az = abs(z)
            return math.copysign(az - l0, z) if az > thr else 0.0

        return prox

    if p.kind == "scad":
        half = 0.5
        alam = a * lam
        plimit = 0.5 * (a + 1.0) * lam**2
        denom = 2.0 * (a - 1.0)

        def value(b: float) -> float:
            if b <= lam:
                return lam * b
            if b <= alam:
                return (2.0 * alam * b - b * b - lam * lam) / denom
            return plimit

        def prox(z: float) -> float:
            az = abs(z)
            if az == 0.0:
                return 0.0
            w = az - l0

            def q(b: float) -> float:
                return half * (az - b) ** 2 + l0 * b + value(b)

            # each quadratic piece is strictly convex (a > 2), so its minimum
            # is the stationary point clamped to the piece
            c1 = min(max(w - lam, 0.0), lam)
            c2 = min(max(((a - 1.0) * w - alam) / (a - 2.0), lam), alam)
            c3 = min(max(w, alam), max(alam, az))
            b = _best((c1, c2, c3), q)
            return math.copysign(b, z)

        return prox

    if p.kind == "mcp":
        alam = a * lam
        plimit = 0.5 * a * lam**2

        def value(b: float) -> float:
            if b <= alam:
                return lam * b - b * b / (2.0 * a)
            return plimit

        def prox(z: float) -> float:
            az = abs(z)
            if az == 0.0:
                return 0.0
            w = az - l0

            def q(b: float) -> float:
                return 0.5 * (az - b) ** 2 + l0 * b + value(b)

            c1 = min(max((w - lam) * a / (a - 1.0), 0.0), alam)
            c2 = min(max(w, alam), max(alam, az))
            b = _best((c1, c2), q)
            return math.copysign(b, z)

        return prox

    # sica: stationary points solve (b - w)(a + b)^2 + lam a (a+1) = 0, a cubic
    coef = lam * a * (a + 1.0)

    def pval(b: float) -> float:
        return lam * (a + 1.0) * b / (a + b)

    def pderiv(b: float) -> float:
        return coef / (a + b) ** 2

    deriv0 = coef / (a * a)  # p'(0+)

    def prox(z: float) -> float:
        az = abs(z)
        if az == 0.0:
            return 0.0
        w = az - l0

        def q(b: float) -> float:
            return 0.5 * (az - b) ** 2 + l0 * b + pval(b)

        roots = _real_cubic_roots(2.0 * a - w, a * a - 2.0 * a * w, coef - w * a * a)
        cands = []
        for r in roots:
            if r < -1e-12 or r > az * (1.0 + 1e-12) + 1e-300:
                continue
            b = min(max(r, 0.0), az)
            for _ in range(2):  # Newton polish on q'(b) = b - w + p'(b)
                g = b - w + pderiv(b)
                h = 1.0 - 2.0 * coef / (a + b) ** 3
                if h <= 1e-12:
                    break
                b = min(max(b - g / h, 0.0), az)
            cands.append(b)
        best = _best(cands, q)
        if best == 0.0 and w > deriv0:
            # zero is not even locally optimal, so a stationary point in
            # (0, w) exists; the cubic solver can miss it next to a double
            # root, where bisection on q' recovers it to machine precision
            lo, hi = 0.0, w
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if mid - w + pderiv(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            if q(lo) < q(0.0):
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


def zero_threshold(p: PenaltySpec) -> float:
    """Largest t such that prox_combined(z, p) = 0 for all |z| <= t.

    lambda0 + lam for l1/hard/scad/mcp. For sica the minimizer jumps: the
    tie between zero and the interior stationary point happens at
    lambda0 + sqrt(2 lam (a+1)) - a/2 once 2 lam (a+1) > a^2, and entry is
    continuous at lambda0 + lam (a+1)/a below that. Used for screening in
    the coordinate-descent solver.
    """
    if p.kind in ("l1", "hard", "scad", "mcp"):
        return p.lambda0 + p.lam
    a = p.shape
    two_lc = 2.0 * p.lam * (a + 1.0)
    if two_lc <= a * a:
        return p.lambda0 + p.lam * (a + 1.0) / a
    return p.lambda0 + math.sqrt(two_lc) - 0.5 * a


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


def prox_oracle(z: float, p: PenaltySpec, grid_n: int = 100_000) -> float:
    """Brute-force global minimizer by exhaustive grid search plus local refinement.

    Searches [-|z| - lam, |z| + lam] on a grid_n-point grid, then rescans the
    winning cell on a finer grid; zero is an explicit candidate that wins
    exact ties. Test oracle only; grid_n must be at least 1e5 so the grid
    alone pins the minimizer to ~1e-5.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if grid_n < 100_000:
        raise ValueError("grid_n must be at least 1e5")
    half = abs(z) + p.lam
    if half == 0.0:
        return 0.0
    u = _unit_grid(grid_n)
    # scan in cache-sized chunks; temporaries stay resident so the sweep is
    # compute-bound instead of memory-bound
    best_val, i = math.inf, 0
    for s in range(0, grid_n, _CHUNK):
        v = combined_objective(u[s:s + _CHUNK] * half, z, p)
        j = int(np.argmin(v))
        if v[j] < best_val:
            best_val, i = float(v[j]), s + j
    step = 2.0 * half / (grid_n - 1)
    gi = -half + step * i
    fine = np.linspace(max(gi - step, -half), min(gi + step, half), _FINE_N)
    v = combined_objective(fine, z, p)
    j = int(np.argmin(v))
    return float(fine[j]) if v[j] < combined_objective(0.0, z, p) else 0.0
