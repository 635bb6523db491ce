import itertools
import math

import numpy as np
import pytest
from scipy.linalg import hadamard

from l1concave import metrics
from l1concave.metrics import (ar1_covariance, equicorr_gram_infnorm, false_signs,
                               fp_fn, lq_loss, noise_event_check, prediction_error,
                               restricted_eigenvalue_estimate, sparse_eigenvalue)


def test_false_signs_examples():
    b = np.array([1.0, -0.5, 0.7, 0.0])
    assert false_signs(b, b) == 0
    beta0 = np.zeros(10)
    beta0[:7] = 1.0
    assert false_signs(np.zeros(10), beta0) == 7
    assert false_signs([1.0, -1.0, 0.0], [1.0, 1.0, 0.0]) == 1
    with pytest.raises(ValueError):
        false_signs([1.0], [1.0, 2.0])


def test_false_signs_zero_iff_sign_equal():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.choice([-1.0, 0.0, 1.0], size=8) * rng.uniform(0.1, 2.0, size=8)
        b = rng.choice([-1.0, 0.0, 1.0], size=8) * rng.uniform(0.1, 2.0, size=8)
        naive = sum(1 for x, y in zip(a, b) if np.sign(x) != np.sign(y))
        assert false_signs(a, b) == naive
        assert (false_signs(a, b) == 0) == all(np.sign(a) == np.sign(b))


def test_fp_fn():
    beta0 = np.array([1.0, 2.0, 0.0, 0.0, 0.0])
    assert fp_fn(beta0, beta0) == (0, 0)
    assert fp_fn(np.array([1.0, 2.0, 0.5, -0.5, 0.1]), beta0) == (3, 0)
    assert fp_fn(np.array([1.0, 0.0, 0.0, 0.0, 0.0]), beta0) == (0, 1)
    b = np.array([1.0, 0.0, 0.5, 0.0, 0.0])
    assert fp_fn(b, beta0) == (1, 1) and false_signs(b, beta0) == 2


def test_lq_loss():
    b = np.array([1.0, 2.0, 3.0])
    for q in (1, 1.5, 2, math.inf):
        assert lq_loss(b, b, q) == 0.0
    e1 = np.array([1.0, 0.0, 0.0])
    z = np.zeros(3)
    for q in (1, 1.5, 2, math.inf):
        assert lq_loss(e1, z, q) == 1.0
    assert lq_loss(np.array([3.0, 4.0, 0.0]), z, 2) == 5.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = rng.standard_normal(6)
        assert lq_loss(d, np.zeros(6), 2) == pytest.approx(np.linalg.norm(d))
        assert lq_loss(d, np.zeros(6), 1) == pytest.approx(np.linalg.norm(d, 1))
        assert lq_loss(d, np.zeros(6), math.inf) == pytest.approx(np.linalg.norm(d, np.inf))
    for bad in (0.5, 2.5, 3, -1):
        with pytest.raises(ValueError):
            lq_loss(e1, z, bad)


def test_prediction_error_analytic():
    S = ar1_covariance(4, 0.5)
    b0 = np.array([1.0, 0.0, -0.5, 0.0])
    assert prediction_error(b0, b0, 0.25, S) == pytest.approx(0.0625)
    assert prediction_error(b0, b0, 0.0, S) == 0.0
    d = np.array([0.1, -0.2, 0.3, 0.0])
    assert prediction_error(b0 + d, b0, 0.5, np.eye(4)) == pytest.approx(0.25 + d @ d)
    with pytest.raises(ValueError):
        prediction_error(b0, b0, 0.1, -np.eye(4))


def test_prediction_error_sampled_within_3_se():
    rng = np.random.default_rng(2)
    p = 6
    S = ar1_covariance(p, 0.5)
    b0 = rng.standard_normal(p)
    bh = b0 + 0.2 * rng.standard_normal(p)
    sigma, size, seed = 0.3, 10_000, 77
    analytic = prediction_error(bh, b0, sigma, S)
    # independent oracle: squared errors on a test sample drawn here, and
    # their standard error
    orng = np.random.default_rng(seed)
    L = np.linalg.cholesky(S)
    Xt = orng.standard_normal((size, p)) @ L.T
    yt = Xt @ b0 + sigma * orng.standard_normal(size)
    sq = (yt - Xt @ bh) ** 2
    se = sq.std(ddof=1) / math.sqrt(size)
    assert abs(analytic - sq.mean()) <= 3 * se


def test_sparse_eigenvalue_orthogonal_and_duplicate():
    X = hadamard(8).astype(float)
    for k in (1, 3, 8):
        res = sparse_eigenvalue(X, k)
        assert res.method == "exhaustive"
        assert res.value == pytest.approx(1.0, abs=1e-10)
    X2 = np.column_stack([X, X[:, 0]])
    res = sparse_eigenvalue(X2, 2)
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_sparse_eigenvalue_exhaustive_matches_bruteforce():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((15, 9))
    k = 3
    res = sparse_eigenvalue(X, k)
    assert res.method == "exhaustive" and res.evaluated == math.comb(9, 3)
    # brute force through Gram eigenvalues instead of singular values
    best = math.inf
    for supp in itertools.combinations(range(9), k):
        G = X[:, supp].T @ X[:, supp] / 15
        best = min(best, math.sqrt(max(np.linalg.eigvalsh(G)[0], 0.0)))
    assert res.value == pytest.approx(best, abs=1e-10)


def test_sparse_eigenvalue_sampled_is_upper_bound():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((15, 9))
    full = sparse_eigenvalue(X, 3)
    sampled = sparse_eigenvalue(X, 3, budget=1, samples=40, seed=5)
    assert sampled.method == "sampled"
    assert sampled.value >= full.value - 1e-12


@pytest.mark.parametrize("kwargs, method", [({}, "exhaustive"),
                                             (dict(budget=1, samples=20, seed=3), "sampled")])
def test_sparse_eigenvalue_is_zero_without_svd_when_k_exceeds_n(monkeypatch, kwargs, method):
    # every 5 x 8 restriction has rank at most 5, so sigma_8 = 0; the last of
    # the 5 singular values an SVD returns would be sigma_5 > 0
    X = np.random.default_rng(15).standard_normal((5, 10))
    assert sparse_eigenvalue(X, 5, **kwargs).value > 0.0  # k = n still runs the SVD

    def no_svd(*args, **kw):
        raise AssertionError("SVD called with k > n")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    res = sparse_eigenvalue(X, 8, **kwargs)
    assert (res.value, res.method, res.evaluated) == (0.0, method, 1)


def test_restricted_eigenvalue_identity_design():
    n = 20
    X = math.sqrt(n) * np.eye(n)
    est = restricted_eigenvalue_estimate(X, s=3, samples=50, seed=6)
    assert est >= 1.0 - 1e-9


def test_restricted_eigenvalue_single_sample_ratio():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((12, 8))
    n, s, cone = 12, 2, metrics.RE_CONE_FACTOR
    est = restricted_eigenvalue_estimate(X, s=s, samples=1, seed=3)
    # recompute the one evaluated ratio with the same per-sample seed schedule
    orng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    head = orng.standard_normal(s)
    tail = orng.standard_normal(8 - s)
    tail = tail * (cone * np.abs(head).sum() / np.abs(tail).sum())
    delta = np.concatenate([head, tail])
    top = tail[np.argsort(-np.abs(tail), kind="stable")[:s]]
    denom = max(np.linalg.norm(head), np.linalg.norm(top))
    ratio = np.linalg.norm(X @ delta) / math.sqrt(n) / denom
    assert est == pytest.approx(ratio, rel=1e-15)


def test_restricted_eigenvalue_running_min():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 15))
    e50 = restricted_eigenvalue_estimate(X, s=3, samples=50, seed=8)
    e200 = restricted_eigenvalue_estimate(X, s=3, samples=200, seed=8)
    assert e200 <= e50 + 1e-15
    again = restricted_eigenvalue_estimate(X, s=3, samples=200, seed=8)
    assert again == e200


def test_noise_event_check():
    X = np.ones((5, 2))
    assert noise_event_check(X, np.zeros(5), 0.0)
    eps = np.ones(5)
    assert not noise_event_check(X, eps, 0.0)
    assert noise_event_check(X, eps, 2.5)  # ||X'eps||inf / n = 1 <= 1.25


@pytest.mark.parametrize("call, message", [
    (lambda: prediction_error(np.zeros(3), np.zeros(3), 1.0, np.eye(2)), "Sigma0 has wrong shape"),
    (lambda: sparse_eigenvalue(np.eye(3), 0), "k must be at least 1"),
    (lambda: restricted_eigenvalue_estimate(np.eye(4), 1, samples=0), "samples must be at least 1"),
    (lambda: noise_event_check(np.ones((5, 2)), np.ones(4), 1.0), "eps length"),
], ids=["pe_sigma0_shape", "kappa0_k_zero", "re_no_samples", "noise_eps_length"])
def test_metrics_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_equicorr_closed_form():
    for s in (1, 2, 5, 10):
        assert equicorr_gram_infnorm(s, 0.0) == 1.0
    assert equicorr_gram_infnorm(2, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert equicorr_gram_infnorm(10, 0.5) == pytest.approx(38.0 / 11.0, abs=1e-12)
    with pytest.raises(ValueError):
        equicorr_gram_infnorm(0, 0.5)
    with pytest.raises(ValueError):
        equicorr_gram_infnorm(3, 1.0)


def test_equicorr_matches_direct_inverse():
    for s in (1, 2, 7, 25):
        for rho in (0.0, 0.3, 0.6, 0.9):
            M = (1 - rho) * np.eye(s) + rho * np.ones((s, s))
            direct = float(np.max(np.abs(np.linalg.inv(M)).sum(axis=1)))
            val = equicorr_gram_infnorm(s, rho)
            assert val == pytest.approx(direct, abs=1e-10)
            assert val <= 2.0 / (1.0 - rho) + 1e-12


# Reference loops: one SVD per support and one direction per sample, as
# sparse_eigenvalue and restricted_eigenvalue_estimate computed them before
# they were stacked into blocks.

def sparse_eigenvalue_loop(X, k, budget=50_000, samples=2000, seed=0):
    n, p = X.shape
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
        return best * scale, "exhaustive", count
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        supp = rng.choice(p, size=k, replace=False)
        sv = np.linalg.svd(X[:, supp], compute_uv=False)[-1]
        best = min(best, sv)
    return best * scale, "sampled", samples


def restricted_eigenvalue_loop(X, s, samples=1000, seed=0):
    n, p = X.shape
    scale = 1.0 / math.sqrt(n)
    best = math.inf
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        head = rng.standard_normal(s)
        tail = rng.standard_normal(p - s)
        l1_head = np.abs(head).sum()
        l1_tail = np.abs(tail).sum()
        if l1_tail > 0.0:
            tail = tail * (metrics.RE_CONE_FACTOR * l1_head / l1_tail)
        delta = np.concatenate([head, tail])
        order = np.argsort(-np.abs(tail), kind="stable")
        top = tail[order[:s]]
        denom = max(float(np.linalg.norm(head)), float(np.linalg.norm(top)))
        if denom == 0.0:
            continue
        best = min(best, scale * float(np.linalg.norm(X @ delta)) / denom)
    return best


def duplicated_unit_column_design(n=15, p=8, seed=12):
    """Columns 2 and 5 both sqrt(n) e_0: every support holding both has an
    exactly zero singular value, and the first such support, (0, 2, 5) for
    k = 3 or (2, 5) for k = 2, comes midway through the enumeration."""
    X = np.random.default_rng(seed).standard_normal((n, p))
    X[:, 2] = X[:, 5] = 0.0
    X[0, 2] = X[0, 5] = math.sqrt(n)
    return X


@pytest.mark.parametrize("supports_per_block", [None, 1, 4, 5, 7])
@pytest.mark.parametrize("case", ["exhaustive", "duplicate_k2", "duplicate_k3", "sampled",
                                  "sampled_wide"])
def test_sparse_eigenvalue_equals_per_support_loop(monkeypatch, case, supports_per_block):
    rng = np.random.default_rng(13)
    kwargs = {}
    if case == "exhaustive":
        X, k = rng.standard_normal((15, 9)), 3
    elif case.startswith("duplicate"):
        X, k = duplicated_unit_column_design(), int(case[-1])
    elif case == "sampled":
        X, k = rng.standard_normal((15, 9)), 3
        kwargs = dict(budget=10, samples=23, seed=5)
    else:
        X, k = rng.standard_normal((12, 40)), 6
        kwargs = dict(samples=101, seed=9)
    if supports_per_block is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * X.shape[0] * k * supports_per_block)
    res = sparse_eigenvalue(X, k, **kwargs)
    assert (res.value, res.method, res.evaluated) == sparse_eigenvalue_loop(X, k, **kwargs)
    if case.startswith("duplicate"):
        assert res.value == 0.0 and res.evaluated < math.comb(X.shape[1], k)


@pytest.mark.parametrize("samples", [0, -3])
def test_sparse_eigenvalue_rejects_no_samples(samples):
    X = np.random.default_rng(14).standard_normal((15, 9))
    with pytest.raises(ValueError, match="samples must be at least 1"):
        sparse_eigenvalue(X, 3, budget=1, samples=samples)
    # the exhaustive branch draws no samples and does not read the count
    assert sparse_eigenvalue(X, 3, samples=samples).evaluated == math.comb(9, 3)


@pytest.mark.parametrize("samples_per_block", [None, 1, 3, 64])
@pytest.mark.parametrize("n, p, s, samples", [(12, 8, 2, 10), (20, 15, 14, 37),
                                              (30, 60, 7, 200), (10, 3, 2, 5)])
def test_restricted_eigenvalue_matches_per_sample_loop(monkeypatch, samples_per_block,
                                                       n, p, s, samples):
    X = np.random.default_rng(15 + p).standard_normal((n, p))
    if samples_per_block is not None:
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 8 * p * samples_per_block)
    for seed in (0, 4):
        est = restricted_eigenvalue_estimate(X, s, samples=samples, seed=seed)
        assert est == pytest.approx(restricted_eigenvalue_loop(X, s, samples=samples, seed=seed),
                                    rel=1e-13, abs=0.0)
