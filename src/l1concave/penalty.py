"""Concave penalty family used alongside a separate L1 term.

The combined penalty applied to each coefficient magnitude t >= 0 is

    lambda0 * t + p(t),

where p is a nondecreasing concave function with p(0) = 0. This module
implements the concave component p only: its value (on arrays, and as a
pure-float callable for the solver's sweep), its first and second
derivatives, and a numerical verifier for the shape conditions under which
coordinatewise-global minimizers acquire the hard-thresholding feature
(every nonzero coefficient exceeds (1 - c1) * lam in magnitude).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("l1", "hard", "scad", "mcp", "sica")

DEFAULT_SHAPE = {"scad": 3.7, "mcp": 3.0, "sica": 0.1}

# check identifiers reported by check_shape_conditions
CHECK_MONOTONE = "monotone"
CHECK_CONCAVE = "concave"
CHECK_DOMINATES_HARD = "dominates_hard"
CHECK_THRESHOLD_DERIVATIVE = "threshold_derivative"
CHECK_CURVATURE_DECREASING = "curvature_decreasing"
_SHAPE_GRID_N = 1000  # points per grid in check_shape_conditions


@dataclass(frozen=True)
class PenaltySpec:
    """A member of the concave penalty family plus the L1 level lambda0.

    Parameters
    ----------
    kind : one of {"l1", "hard", "scad", "mcp", "sica"}. "l1" makes the
        concave slot itself linear, lam * t, so the combined penalty is a
        plain soft threshold at lambda0 + lam.
    lam : level of the concave component (lambda in the usual notation).
    lambda0 : level of the separate L1 component. Carried here so one object
        describes the whole combined penalty.
    shape : concavity parameter a (scad requires a > 2, mcp a > 1,
        sica a > 0). Unused for l1/hard. Defaults are filled per kind.

    Immutable after construction; all operations on it are pure functions.
    """

    kind: str
    lam: float
    lambda0: float = 0.0
    shape: float = field(default=math.nan)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "lambda0", float(self.lambda0))
        if not 0.0 <= self.lam < math.inf or not 0.0 <= self.lambda0 < math.inf:
            raise ValueError("lam and lambda0 must be finite and nonnegative")
        a = self.shape
        if a is None or (isinstance(a, float) and math.isnan(a)):
            a = DEFAULT_SHAPE.get(self.kind, math.nan)
        a = float(a) if a is not None else math.nan
        object.__setattr__(self, "shape", a)
        if self.kind == "scad" and not 2.0 < a < math.inf:
            raise ValueError("scad requires a finite shape > 2")
        if self.kind == "mcp" and not 1.0 < a < math.inf:
            raise ValueError("mcp requires a finite shape > 1")
        if self.kind == "sica" and not 0.0 < a < math.inf:
            raise ValueError("sica requires a finite shape > 0")


@dataclass(frozen=True)
class ShapeCheckReport:
    """Outcome of the hard-thresholding shape checks for one penalty.

    failed_checks lists (check identifier, grid point of first violation).
    """

    c1: float
    passes: bool
    failed_checks: tuple[tuple[str, float], ...]


def _check_t(t, positive=False):
    t = np.asarray(t, dtype=float)
    if positive:
        if (t <= 0.0).any():
            raise ValueError("t must be positive")
    elif (t < 0.0).any():
        raise ValueError("t must be nonnegative")
    return t


def penalty_value(p: PenaltySpec, t):
    """Concave-component value p(t) for t >= 0. The lambda0 term is excluded.

    Accepts scalars or arrays. Raises ValueError for negative t.
    """
    t = _check_t(t)
    lam, a = p.lam, p.shape
    if p.kind == "l1":
        out = lam * t
    elif p.kind == "hard":
        out = np.where(t < lam, t * (lam - 0.5 * t), 0.5 * lam**2)
    elif p.kind == "scad":
        mid = (2.0 * a * lam * t - t * t - lam**2) / (2.0 * (a - 1.0))
        out = np.where(t <= lam, lam * t, np.where(t <= a * lam, mid, 0.5 * (a + 1.0) * lam**2))
    elif p.kind == "mcp":
        out = np.where(t <= a * lam, lam * t - t * t / (2.0 * a), 0.5 * a * lam**2)
    else:  # sica
        out = lam * (a + 1.0) * t / (a + t)
    if np.ndim(out) == 0:
        return float(out)
    return out


def scalar_value(p: PenaltySpec):
    """p(t) as a pure-float callable for hot loops, without the t >= 0 check;
    equal to penalty_value(p, t) bit for bit (same arithmetic, same order)."""
    lam, a = p.lam, p.shape
    lam2, alam, c = lam**2, a * lam, lam * (a + 1.0)
    if p.kind == "l1":
        return lambda t: lam * t
    if p.kind == "hard":
        return lambda t: t * (lam - 0.5 * t) if t < lam else 0.5 * lam2
    if p.kind == "scad":
        slope, den, top = 2.0 * a * lam, 2.0 * (a - 1.0), 0.5 * (a + 1.0) * lam2
        return lambda t: (lam * t if t <= lam
                          else (slope * t - t * t - lam2) / den if t <= alam else top)
    if p.kind == "mcp":
        return lambda t: lam * t - t * t / (2.0 * a) if t <= alam else 0.5 * a * lam2
    return lambda t: c * t / (a + t)  # sica


def penalty_derivative(p: PenaltySpec, t):
    """Derivative p'(t) for t > 0; left limit at kink points.

    Nonincreasing in t by concavity. Raises ValueError for t <= 0.
    """
    t = _check_t(t, positive=True)
    # kinks take the left limit: t = lam for hard/scad, t = a*lam for mcp
    lam, a = p.lam, p.shape
    if p.kind == "l1":
        out = np.full_like(t, lam)
    elif p.kind == "hard":
        out = np.where(t < lam, lam - t, 0.0)
    elif p.kind == "scad":
        out = np.where(t <= lam, lam, np.where(t < a * lam, (a * lam - t) / (a - 1.0), 0.0))
    elif p.kind == "mcp":
        out = np.where(t <= a * lam, lam - t / a, 0.0)
    else:  # sica
        out = lam * a * (a + 1.0) / (a + t) ** 2
    if np.ndim(out) == 0:
        return float(out)
    return out


def derivative_at_zero(p: PenaltySpec) -> float:
    """Right limit p'(0+); the largest slope of the concave component."""
    lam, a = p.lam, p.shape
    if p.kind == "sica":
        return lam * (a + 1.0) / a
    return lam


def _second_derivative(p: PenaltySpec, t):
    # left-limit convention at kinks, matching penalty_derivative
    lam, a = p.lam, p.shape
    t = np.asarray(t, dtype=float)
    if p.kind == "l1":
        return np.zeros_like(t)
    if p.kind == "hard":
        return np.where(t <= lam, -1.0, 0.0)
    if p.kind == "scad":
        return np.where(t <= lam, 0.0, np.where(t <= a * lam, -1.0 / (a - 1.0), 0.0))
    if p.kind == "mcp":
        return np.where(t <= a * lam, -1.0 / a, 0.0)
    return -2.0 * lam * a * (a + 1.0) / (a + t) ** 3


def check_shape_conditions(p: PenaltySpec, c1: float) -> ShapeCheckReport:
    """Numerically verify the shape conditions for the hard-thresholding feature.

    On uniform 1000-point grids, checks that the concave component is (a)
    nondecreasing, (b) concave, (c) dominates the hard-thresholding penalty
    on [0, lam], (d) has derivative at (1 - c1) * lam at most c1 * lam, and
    (e) has -p'' nonincreasing on [0, (1 - c1) * lam]. Grid verification only; the
    conditions are one-dimensional inequalities so grid + tolerance is
    adequate for any kind.
    """
    if not 0.0 <= c1 < 1.0:
        raise ValueError("c1 must lie in [0, 1)")
    lam = p.lam
    failed: list[tuple[str, float]] = []

    hi = lam * max(3.0, (p.shape + 1.0) if p.kind in ("scad", "mcp") else 3.0)
    ts = np.linspace(0.0, hi, _SHAPE_GRID_N)
    vals = penalty_value(p, ts)
    scale = max(1.0, float(np.max(np.abs(vals))) if ts.size else 1.0)

    diffs = np.diff(vals)
    bad = np.flatnonzero(diffs < -1e-12 * scale)
    if bad.size:
        failed.append((CHECK_MONOTONE, float(ts[bad[0] + 1])))

    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    bad = np.flatnonzero(second > 1e-10)
    if bad.size:
        failed.append((CHECK_CONCAVE, float(ts[bad[0] + 1])))

    tc = np.linspace(0.0, lam, _SHAPE_GRID_N)
    gap = penalty_value(p, tc) - penalty_value(PenaltySpec("hard", lam), tc)
    bad = np.flatnonzero(gap < -1e-12)
    if bad.size:
        failed.append((CHECK_DOMINATES_HARD, float(tc[bad[0]])))

    td = (1.0 - c1) * lam
    deriv = derivative_at_zero(p) if td == 0.0 else float(penalty_derivative(p, td))
    if deriv > c1 * lam + 1e-12:
        failed.append((CHECK_THRESHOLD_DERIVATIVE, td))

    te = np.linspace(0.0, td, _SHAPE_GRID_N)
    neg_curv = -_second_derivative(p, te)
    bad = np.flatnonzero(np.diff(neg_curv) > 1e-12)
    if bad.size:
        failed.append((CHECK_CURVATURE_DECREASING, float(te[bad[0] + 1])))

    return ShapeCheckReport(c1=float(c1), passes=not failed, failed_checks=tuple(failed))
