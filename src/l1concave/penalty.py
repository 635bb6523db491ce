"""Concave penalty family used alongside a separate L1 term.

The combined penalty on each coefficient magnitude t >= 0 is lambda0 * t + p(t),
where p is a nondecreasing concave function with p(0) = 0. This module holds
the concave component p only. Each kind is written once, as one table of
pieces with p, p' and p'' on each (_pieces); the array forms, the pure-float p
for the solver's sweep and p'(0+) all read it. A numerical verifier checks the
shape conditions under which coordinatewise-global minimizers acquire the
hard-thresholding feature (every nonzero coefficient exceeds (1 - c1) * lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

KINDS = ("l1", "hard", "scad", "mcp", "sica")

# per kind with a shape: (default a, the bound a must exceed)
_SHAPE_RULE = {"scad": (3.7, 2.0), "mcp": (3.0, 1.0), "sica": (0.1, 0.0)}

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
        a, rule = self.shape, _SHAPE_RULE.get(self.kind)
        if a is None or (isinstance(a, float) and math.isnan(a)):
            a = rule[0] if rule else math.nan
        object.__setattr__(self, "shape", float(a))
        if rule and not rule[1] < self.shape < math.inf:
            raise ValueError(f"{self.kind} requires a finite shape > {rule[1]:g}")


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
    if (t <= 0.0 if positive else t < 0.0).any():
        raise ValueError("t must be positive" if positive else "t must be nonnegative")
    return t


def _pieces(p: PenaltySpec):
    """The one definition of p, p' and p'' for p's kind: (p'(0+), edges, pieces).

    Piece i holds for t <= edges[i] and the last piece for every larger t, so
    a kink takes its left piece (left limits of p' and p''). Each piece is
    (value, slope, curvature), each a float or a callable of t built from
    + - * / only, which gives the same bits on a float and on an array.
    """
    lam, a = p.lam, p.shape
    lam2 = lam**2  # every kind raises OverflowError at a level whose square overflows
    if p.kind == "l1":
        return lam, (), [(lambda t: lam * t, lam, 0.0)]
    if p.kind == "hard":
        return lam, (lam,), [(lambda t: t * (lam - 0.5 * t), lambda t: lam - t, -1.0),
                             (0.5 * lam2, 0.0, 0.0)]
    if p.kind == "scad":
        two_alam, den, alam, am1 = 2.0 * a * lam, 2.0 * (a - 1.0), a * lam, a - 1.0
        return lam, (lam, alam), [
            (lambda t: lam * t, lam, 0.0),
            (lambda t: (two_alam * t - t * t - lam2) / den, lambda t: (alam - t) / am1, -1.0 / am1),
            (0.5 * (a + 1.0) * lam2, 0.0, 0.0)]
    if p.kind == "mcp":
        a2 = 2.0 * a
        return lam, (a * lam,), [(lambda t: lam * t - t * t / a2, lambda t: lam - t / a, -1.0 / a),
                                 (0.5 * a * lam2, 0.0, 0.0)]
    # sica; scalar_prox's Newton loop inlines this slope and curvature
    c, coef = lam * (a + 1.0), lam * a * (a + 1.0)
    coef2 = 2.0 * coef
    return lam * (a + 1.0) / a, (), [(lambda t: c * t / (a + t),
                                      lambda t: coef / ((a + t) * (a + t)),
                                      lambda t: -coef2 / ((a + t) * (a + t) * (a + t)))]


def _on_array(p: PenaltySpec, t, col: int):
    """Column col (0: p, 1: p', 2: p'') of p's pieces at the array t: each piece
    evaluated over all of t, joined with np.where from the last piece back."""
    _, edges, pieces = _pieces(p)
    *heads, out = [f(t) if callable(f) else f for f in (piece[col] for piece in pieces)]
    for edge, val in zip(edges[::-1], heads[::-1]):
        out = np.where(t <= edge, val, out)
    if t.ndim == 0:
        return float(out)
    return out if isinstance(out, np.ndarray) else np.full_like(t, out)  # a constant single piece


def penalty_value(p: PenaltySpec, t):
    """Concave-component value p(t) for t >= 0. The lambda0 term is excluded.

    Accepts scalars or arrays. Raises ValueError for negative t.
    """
    return _on_array(p, _check_t(t), 0)


def scalar_value(p: PenaltySpec):
    """p(t) as a pure-float callable for hot loops, without the t >= 0 check;
    equal to penalty_value(p, t) bit for bit (the same pieces). Every kind with
    more than one piece ends on a constant plateau."""
    _, edges, pieces = _pieces(p)
    f = [piece[0] for piece in pieces]
    if not edges:
        return f[0]
    if len(edges) == 1:
        (e,), (g, top) = edges, f
        return lambda t: g(t) if t <= e else top
    (e0, e1), (g0, g1, top) = edges, f
    return lambda t: g0(t) if t <= e0 else g1(t) if t <= e1 else top


def penalty_derivative(p: PenaltySpec, t):
    """Derivative p'(t) for t > 0; left limit at kink points.

    Nonincreasing in t by concavity. Raises ValueError for t <= 0.
    """
    return _on_array(p, _check_t(t, positive=True), 1)


def derivative_at_zero(p: PenaltySpec) -> float:
    """Right limit p'(0+); the largest slope of the concave component."""
    return _pieces(p)[0]


def _second_derivative(p: PenaltySpec, t):
    return _on_array(p, np.asarray(t, dtype=float), 2)


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
    scale = max(1.0, float(np.max(np.abs(vals))))

    bad = np.flatnonzero(np.diff(vals) < -1e-12 * scale)
    if bad.size:
        failed.append((CHECK_MONOTONE, float(ts[bad[0] + 1])))

    bad = np.flatnonzero(vals[2:] - 2.0 * vals[1:-1] + vals[:-2] > 1e-10)
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
    bad = np.flatnonzero(np.diff(-_second_derivative(p, te)) > 1e-12)
    if bad.size:
        failed.append((CHECK_CURVATURE_DECREASING, float(te[bad[0] + 1])))

    return ShapeCheckReport(c1=float(c1), passes=not failed, failed_checks=tuple(failed))
