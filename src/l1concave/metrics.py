"""Variable-selection and estimation diagnostics.

Sign/support error counts, Lq and prediction losses, sparse and restricted
eigenvalue diagnostics for the design conditions, the noise-event check, and
the closed-form infinity norm of the inverse equicorrelation Gram matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SparseEigenvalue:
    """Smallest scaled singular value over k-sparse column subsets.

    Exact when every subset was enumerated (method="exhaustive"); otherwise
    a sampled upper bound on the true minimum (method="sampled").
    """

    value: float
    method: str
    evaluated: int


def _pair(beta_hat, beta0):
    a = np.asarray(beta_hat, dtype=float).ravel()
    b = np.asarray(beta0, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    return a, b


def false_signs(beta_hat, beta0) -> int:
    """Number of coordinates with sgn(beta_hat_j) != sgn(beta0_j), sgn(0) = 0."""
    a, b = _pair(beta_hat, beta0)
    return int(np.sum(np.sign(a) != np.sign(b)))


def fp_fn(beta_hat, beta0) -> tuple[int, int]:
    """(false positives, false negatives) of the selected support."""
    a, b = _pair(beta_hat, beta0)
    sa, sb = a != 0.0, b != 0.0
    return int(np.sum(sa & ~sb)), int(np.sum(~sa & sb))


def lq_loss(beta_hat, beta0, q) -> float:
    """||beta_hat - beta0||_q for q in [1, 2] or q = inf."""
    a, b = _pair(beta_hat, beta0)
    d = np.abs(a - b)
    if q == math.inf:
        return float(d.max()) if d.size else 0.0
    q = float(q)
    if not 1.0 <= q <= 2.0:
        raise ValueError("q must lie in [1, 2] or be inf")
    return float(np.sum(d**q) ** (1.0 / q))


def prediction_error(beta_hat, beta0, sigma: float, Sigma0) -> float:
    """Analytic prediction error sigma^2 + d' Sigma0 d with d = beta_hat - beta0."""
    a, b = _pair(beta_hat, beta0)
    S = np.asarray(Sigma0, dtype=float)
    if S.shape != (a.size, a.size):
        raise ValueError("Sigma0 has wrong shape")
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("Sigma0 must be positive definite") from None
    d = a - b
    return float(sigma**2 + d @ S @ d)


def prediction_error_sampled(beta_hat, beta0, sigma: float, Sigma0, size: int = 10_000,
                             seed=0) -> float:
    """Monte-Carlo prediction error on a fresh test sample of the given size."""
    a, b = _pair(beta_hat, beta0)
    S = np.asarray(Sigma0, dtype=float)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("Sigma0 must be positive definite") from None
    rng = np.random.default_rng(seed)
    Xt = rng.standard_normal((size, a.size)) @ L.T
    yt = Xt @ b + sigma * rng.standard_normal(size)
    resid = yt - Xt @ a
    return float(resid @ resid / size)


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    """Sigma0 = (rho^|i-j|)."""
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def sparse_eigenvalue(X, k: int, budget: int = 50_000, samples: int = 2000,
                      seed=0) -> SparseEigenvalue:
    """min over k-sparse supports of n^-1/2 sigma_min(X restricted to the support).

    Enumerates every support when C(p, k) fits the budget; otherwise samples
    supports at random (a deterministic, seeded upper bound on the minimum).
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, p)
    scale = 1.0 / math.sqrt(n)
    if math.comb(p, k) <= budget:
        best = math.inf
        count = 0
        for supp in itertools.combinations(range(p), k):
            sv = np.linalg.svd(X[:, supp], compute_uv=False)[-1]
            count += 1
            if sv < best:
                best = sv
                if best == 0.0:
                    break
        return SparseEigenvalue(value=best * scale, method="exhaustive", evaluated=count)
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        supp = rng.choice(p, size=k, replace=False)
        sv = np.linalg.svd(X[:, supp], compute_uv=False)[-1]
        best = min(best, sv)
    return SparseEigenvalue(value=best * scale, method="sampled", evaluated=samples)


def restricted_eigenvalue_estimate(X, s: int, cone_factor: float = 7.0,
                                   samples: int = 1000, seed=0) -> float:
    """Monte-Carlo upper bound on the restricted eigenvalue kappa(s, cone_factor).

    Draws directions delta with the first s coordinates free and the tail
    scaled onto the cone boundary ||tail||_1 = cone_factor * ||head||_1,
    evaluates n^-1/2 ||X delta||_2 / (||head||_2 v ||tail'||_2) where tail'
    keeps the s largest tail magnitudes (ties to the lower index), and
    returns the running minimum. Deterministic given the seed; each sample
    uses its own derived seed so any partition of the sample budget across
    workers reproduces the sequential result.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if not 1 <= s < p:
        raise ValueError("s must satisfy 1 <= s < p")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    scale = 1.0 / math.sqrt(n)
    best = math.inf
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        head = rng.standard_normal(s)
        tail = rng.standard_normal(p - s)
        l1_head = np.abs(head).sum()
        l1_tail = np.abs(tail).sum()
        if l1_tail > 0.0:
            tail = tail * (cone_factor * l1_head / l1_tail)
        delta = np.concatenate([head, tail])
        order = np.argsort(-np.abs(tail), kind="stable")
        top = tail[order[:s]]
        denom = max(float(np.linalg.norm(head)), float(np.linalg.norm(top)))
        if denom == 0.0:
            continue
        ratio = scale * float(np.linalg.norm(X @ delta)) / denom
        best = min(best, ratio)
    return best


def noise_event_check(X, eps, lambda0: float) -> bool:
    """Whether ||n^-1 X' eps||_inf <= lambda0 / 2 (the concentration event)."""
    X = np.asarray(X, dtype=float)
    eps = np.asarray(eps, dtype=float).ravel()
    if eps.size != X.shape[0]:
        raise ValueError("eps length does not match rows of X")
    return bool(np.max(np.abs(X.T @ eps)) / X.shape[0] <= lambda0 / 2.0)


def equicorr_gram_infnorm(s: int, rho: float) -> float:
    """Infinity norm of the inverse of the s x s equicorrelation Gram matrix.

    For (1 - rho) I + rho 11', the inverse has infinity norm
    (1 - rho)^-1 [1 + rho (s - 2) / (1 + (s - 1) rho)], which never exceeds
    the dimension-free bound 2 / (1 - rho).
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    return (1.0 + rho * (s - 2.0) / (1.0 + (s - 1.0) * rho)) / (1.0 - rho)
