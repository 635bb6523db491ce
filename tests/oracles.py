"""Brute-force reference for the scalar prox, which the tests compare against.

prox_oracle finds the global minimizer of 0.5 (z - b)^2 + lambda0 |b| + p(|b|)
by grid search, independently of the closed forms in l1concave.scalar_prox.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from l1concave.penalty import PenaltySpec, penalty_value

_CHUNK = 8192
_ORACLE_N = 100_000  # oracle grid points: the grid alone pins the minimizer to ~1e-5
_FINE_N = 1025  # points in the rescan of the winning cell


@lru_cache(maxsize=1)
def _unit_grid() -> np.ndarray:
    grid = np.linspace(-1.0, 1.0, _ORACLE_N)
    grid.setflags(write=False)
    return grid


def combined_objective(beta, z: float, p: PenaltySpec):
    """0.5 * (z - beta)^2 + lambda0 * |beta| + p(|beta|); vectorized in beta."""
    b = np.abs(np.asarray(beta, dtype=float))
    out = 0.5 * (z - np.asarray(beta, dtype=float)) ** 2 + p.lambda0 * b + penalty_value(p, b)
    if np.ndim(out) == 0:
        return float(out)
    return out


def prox_oracle(z: float, p: PenaltySpec) -> float:
    """Brute-force global minimizer by exhaustive grid search plus local refinement.

    Searches [-|z| - lam, |z| + lam] on a 1e5-point grid, then rescans the
    winning cell on a finer grid; zero is an explicit candidate that wins
    exact ties. Test oracle only.
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    half = abs(z) + p.lam
    if half == 0.0:
        return 0.0
    u = _unit_grid()
    # scan in cache-sized chunks; temporaries stay resident so the sweep is
    # compute-bound instead of memory-bound
    best_val, i = math.inf, 0
    for s in range(0, _ORACLE_N, _CHUNK):
        v = combined_objective(u[s:s + _CHUNK] * half, z, p)
        j = int(np.argmin(v))
        if v[j] < best_val:
            best_val, i = float(v[j]), s + j
    step = 2.0 * half / (_ORACLE_N - 1)
    gi = -half + step * i
    fine = np.linspace(max(gi - step, -half), min(gi + step, half), _FINE_N)
    v = combined_objective(fine, z, p)
    j = int(np.argmin(v))
    return float(fine[j]) if v[j] < combined_objective(0.0, z, p) else 0.0
