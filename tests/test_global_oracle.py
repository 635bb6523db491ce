"""An exact global minimizer for hard + L1 at small p, against the engine's fits.

On a standardized design every coordinate has unit curvature, and hard's
p''(t) = -1 on t < lam cancels it: with the other coordinates fixed, the
objective is linear in |b_j| on [0, lam] and its derivative is continuous at
lam. So a global minimizer can be taken with every b_j equal to 0 or with
|b_j| > lam. On a support S with signs s that region's objective is the
quadratic y'y/(2n) - c_S'b + b'G_SS b/2 + lambda0 s'b + |S| lam^2/2 (with
G = X'X/n and c = X'y/n), whose stationary point is
b_S = G_SS^-1 (c_S - lambda0 s); it is a candidate when s * b_S >= lam.
The global minimum is the least of these candidates over all 3^p sign
patterns and b = 0. None of the candidates depends on lam, so one
enumeration serves every level of a path.

Run with ``pytest tests/test_global_oracle.py -s`` to see the printed line.
"""

import itertools
import time

import numpy as np
from scipy.linalg import hadamard

from l1concave.penalty import PenaltySpec
from l1concave.simulate import combined_lambda_grid, gen_design, gen_response
from l1concave.solver import (RegressionProblem, default_lambda_grid, fit_path,
                              objective_value, standardize, universal_lambda0)


def hard_l1_candidates(Xs, y, lambda0):
    """Every support-and-sign candidate: (b, min_j s_j b_j, |S|, objective less |S| lam^2/2)."""
    n, p = Xs.shape
    G, c = Xs.T @ Xs / n, Xs.T @ y / n
    base = float(y @ y) / (2.0 * n)
    betas, margins, sizes, values = [np.zeros(p)], [np.inf], [0], [base]
    for k in range(1, p + 1):
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=k))).T  # k x 2^k
        for S in itertools.combinations(range(p), k):
            idx = list(S)
            G_SS = G[np.ix_(idx, idx)]
            B = np.linalg.solve(G_SS, c[idx, None] - lambda0 * signs)  # one column per sign
            quad = 0.5 * np.einsum("ik,ij,jk->k", B, G_SS, B)
            vals = base - c[idx] @ B + quad + lambda0 * np.abs(B).sum(axis=0)
            full = np.zeros((p, B.shape[1]))
            full[idx] = B
            betas.extend(full.T)
            margins.extend((signs * B).min(axis=0))
            sizes.extend([k] * B.shape[1])
            values.extend(vals)
    return np.array(betas), np.array(margins), np.array(sizes), np.array(values)


def hard_l1_global_min(Xs, y, spec, candidates):
    """The global minimum of the hard + L1 objective at spec, recomputed from scratch."""
    betas, margins, sizes, values = candidates
    total = np.where(margins >= spec.lam, values + 0.5 * sizes * spec.lam**2, np.inf)
    return objective_value(Xs, y, betas[int(np.argmin(total))], spec)


def study_cases():
    """(problem, hard spec at level 0, candidates, levels) on the study's grids:
    n = 40, p = 7, AR(1) rho = 0.5, three signals, sigma = 0.25, seeds 0-9,
    c in {0, 0.125, 0.5}, 10 levels each."""
    n, p, sigma = 40, 7, 0.25
    beta0 = np.zeros(p)
    beta0[:3] = [1.0, -0.5, 0.7]
    for seed in range(10):
        X = gen_design(n, p, 0.5, np.random.SeedSequence((seed, 0)))
        y = gen_response(X, beta0, sigma, np.random.SeedSequence((seed, 1)))
        Xs, _ = standardize(X)
        lasso_grid = default_lambda_grid(Xs, y, 10, 0.05)
        for c in (0.0, 0.125, 0.5):
            spec = PenaltySpec("hard", 0.0, lambda0=universal_lambda0(n, p, c))
            yield (RegressionProblem(Xs, y), spec, hard_l1_candidates(Xs, y, spec.lambda0),
                   combined_lambda_grid(spec, lasso_grid))


def test_oracle_matches_the_separable_optimum_on_an_orthogonal_design():
    # with orthogonal columns the objective separates, and one sweep of exact
    # scalar minimizers from zero is the global minimum
    n = 16
    X = hadamard(n)[:, 1:8].astype(float)
    y = np.random.default_rng(5).standard_normal(n)
    for lambda0 in (0.0, 0.1):
        candidates = hard_l1_candidates(X, y, lambda0)
        for lam in (0.05, 0.2, 0.5):
            spec = PenaltySpec("hard", lam, lambda0=lambda0)
            fit = fit_path(RegressionProblem(X, y), spec, [lam]).fits[0]
            oracle = hard_l1_global_min(X, y, spec, candidates)
            assert abs(fit.objective - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_hard_l1_global_minimum_is_the_l0l1_minimum():
    # hard's p(t) <= lam^2/2, with equality iff t >= lam, so the hard objective
    # is at most (2n)^-1 ||y - Xb||^2 + lambda0 ||b||_1 + (lam^2/2) ||b||_0
    # everywhere, and the two agree where every b_j is 0 or |b_j| >= lam, which
    # is where the oracle finds a hard minimizer. On a support and its signs,
    # the L0L1 minimizer is the candidate when all its signs hold (margin > 0).
    pairs = 0
    for _, _, (_, margins, sizes, values), levels in study_cases():
        for lam in levels:
            fixed = values + 0.5 * sizes * lam**2
            hard = np.where(margins >= lam, fixed, np.inf).min()
            assert np.where(margins > 0.0, fixed, np.inf).min() == hard
            pairs += 1
    assert pairs == 300


def test_certified_hard_fits_are_never_below_the_global_minimum():
    """10-level hard paths from zero on study_cases()' grids.

    A certified fit below the global minimum would mean a wrong objective or a
    wrong oracle. Certified fits above it are coordinatewise-global but not
    global; their count and worst gap are printed, not asserted, as is the
    count of uncertified fits, which are skipped.
    """
    t0 = time.perf_counter()
    fits = below = above = uncertified = 0
    worst = worst_rel = 0.0
    for prob, spec, candidates, levels in study_cases():
        for fit in fit_path(prob, spec, levels).fits:
            fits += 1
            if not fit.coordinatewise_global:
                uncertified += 1
                continue
            oracle = hard_l1_global_min(prob.X, prob.y, fit.penalty, candidates)
            gap = fit.objective - oracle  # the noise keeps the minimum positive
            below += gap < -1e-12 * max(1.0, oracle)
            above += gap > 1e-9 * oracle
            worst, worst_rel = max(worst, gap), max(worst_rel, gap / oracle)
    elapsed = time.perf_counter() - t0
    print(f"[oracle] {'PASS' if below == 0 else 'FAIL'} {fits} hard fits: {below} certified "
          f"below the global minimum, {above} certified above it by > 1e-9 relative "
          f"(worst {worst:.3g}, {worst_rel:.0%} of the minimum), {uncertified} uncertified "
          f"({elapsed:.2f} s)")
    assert below == 0
