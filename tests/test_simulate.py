import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from l1concave import simulate
from l1concave.penalty import PenaltySpec
from l1concave.simulate import (METRIC_NAMES, SimConfig, aggregate, combined_lambda_grid,
                                gen_design, gen_response, run_study, study_beta0)
from l1concave.solver import default_lambda_grid, standardize


def test_study_beta0():
    beta = study_beta0(12)
    assert beta[:7] == pytest.approx([1.0, -0.5, 0.7, -1.2, -0.9, 0.3, 0.55])
    assert np.all(beta[7:] == 0.0)
    with pytest.raises(ValueError):
        study_beta0(5)


def test_gen_design_deterministic_and_iid_at_rho0():
    X1 = gen_design(50, 6, 0.0, seed=4)
    X2 = gen_design(50, 6, 0.0, seed=4)
    assert np.array_equal(X1, X2)
    big = gen_design(4000, 4, 0.0, seed=5)
    corr = np.corrcoef(big, rowvar=False)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 4.0 / math.sqrt(4000))


def test_gen_design_lag1_correlation():
    rho = 0.5
    X = gen_design(2000, 8, rho, seed=6)
    lags = [np.corrcoef(X[:, j], X[:, j + 1])[0, 1] for j in range(7)]
    assert np.mean(lags) == pytest.approx(rho, abs=0.05)
    # column variances stay one under the recursion
    assert X.var(axis=0) == pytest.approx(np.ones(8), abs=0.15)


def test_gen_response():
    X = gen_design(40, 5, 0.3, seed=7)
    beta = np.array([1.0, -2.0, 0.0, 0.5, 0.0])
    y0 = gen_response(X, beta, 0.0, seed=8)
    assert np.array_equal(y0, X @ beta)
    y1 = gen_response(X, beta, 0.4, seed=8)
    y2 = gen_response(X, beta, 0.4, seed=8)
    assert np.array_equal(y1, y2)
    big = gen_design(10_000, 3, 0.0, seed=9)
    resid = gen_response(big, np.zeros(3), 0.7, seed=10)
    assert resid.var() == pytest.approx(0.49, rel=0.1)


def test_generators_reject_bad_arguments():
    with pytest.raises(ValueError, match=r"rho must lie in \[0, 1\)"):
        gen_design(10, 3, 1.0, seed=1)
    with pytest.raises(ValueError, match="beta0 length does not match columns of X"):
        gen_response(np.ones((10, 3)), np.ones(4), 0.5, seed=1)


def test_combined_lambda_grid_threshold_mapping():
    lam0, lasso = 0.05, np.geomspace(1.2, 0.05 * 1.2, 20)
    g_hard = combined_lambda_grid(PenaltySpec("hard", 0.0, lambda0=lam0), lasso)
    assert g_hard == pytest.approx(lasso, abs=1e-12)
    g_sica = combined_lambda_grid(PenaltySpec("sica", 0.0, lambda0=lam0, shape=0.1), lasso)
    assert np.all(np.diff(g_sica) < 0) and np.all(g_sica > 0)
    for bad in ([], [0.5, 0.5], [0.2, 0.4], [0.3, 0.0], [0.3, -0.1]):
        with pytest.raises(ValueError, match="strictly decreasing"):
            combined_lambda_grid(PenaltySpec("hard", 0.0, lambda0=lam0), bad)


@pytest.mark.parametrize("kind", ["l1", "hard", "scad", "mcp"])
def test_combined_lambda_grid_is_the_lasso_grid(kind):
    # the threshold of these kinds is lambda0 + lam, so their levels are the
    # lasso grid: bit for bit at lambda0 = 0, up to the rounding of
    # (lambda0 + g) - lambda0 above it; spec.lam plays no part
    X = gen_design(30, 12, 0.4, seed=21)
    y = gen_response(X, study_beta0(12), 0.3, seed=22)
    Xs, _ = standardize(X)
    lasso = default_lambda_grid(Xs, y, 25, 0.05)
    assert np.array_equal(combined_lambda_grid(PenaltySpec(kind, 0.7), lasso), lasso)
    for lam0 in (1e-3, 0.05, 0.8):
        grid = combined_lambda_grid(PenaltySpec(kind, 0.7, lambda0=lam0), lasso)
        assert grid == pytest.approx(lasso, rel=0.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=20, p=10, reps=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n=20, p=10, reps=1, seed=1, methods=())
    with pytest.raises(ValueError):
        SimConfig(n=20, p=10, reps=1, seed=1, methods=("ridge",))
    with pytest.raises(ValueError, match="methods list names 'oracle' twice"):
        SimConfig(n=20, p=10, reps=1, seed=1, methods=("oracle", "lasso", "oracle"))
    with pytest.raises(ValueError):
        SimConfig(n=20, p=10, reps=1, seed=1, beta0=np.ones(3))
    with pytest.raises(ValueError):
        SimConfig(n=20, p=10, reps=1, seed=1, rho=1.0)


def test_oracle_only_noiseless():
    cfg = SimConfig(n=20, p=10, reps=1, seed=3, sigma=0.0, methods=("oracle",))
    rep = run_study(cfg)
    # exact interpolation up to least-squares rounding
    assert rep.means[("oracle", "pe")] == pytest.approx(0.0, abs=1e-20)
    for metric in ("l2", "l1", "linf"):
        assert rep.means[("oracle", metric)] == pytest.approx(0.0, abs=1e-12)
    for metric in ("fp", "fn", "fs"):
        assert rep.means[("oracle", metric)] == 0.0


def test_oracle_always_clean():
    cfg = SimConfig(n=30, p=12, reps=3, seed=4, sigma=0.3, methods=("oracle",))
    rep = run_study(cfg)
    for row in rep.rows:
        assert row["fp"] == 0 and row["fn"] == 0 and row["fs"] == 0


def test_study_determinism():
    cfg = SimConfig(n=30, p=15, reps=2, seed=5, sigma=0.3, grid_size=10,
                    c_grid=(0.25,), methods=("lasso", "l1_hard", "oracle"))
    a = run_study(cfg)
    b = run_study(cfg)
    assert a.means == b.means
    for r1, r2 in zip(a.rows, b.rows):
        for key in r1:
            v1, v2 = r1[key], r2[key]
            assert v1 == v2 or (isinstance(v1, float) and math.isnan(v1) and math.isnan(v2))


def test_se_recomputable_from_rows():
    cfg = SimConfig(n=30, p=12, reps=4, seed=6, sigma=0.3, grid_size=8,
                    c_grid=(0.25,), methods=("lasso", "oracle"))
    rep = run_study(cfg)
    means, ses = aggregate(rep.rows, cfg.methods)
    for m in cfg.methods:
        for metric in METRIC_NAMES:
            vals = np.array([r[metric] for r in rep.rows if r["method"] == m], dtype=float)
            assert means[(m, metric)] == rep.means[(m, metric)]
            assert ses[(m, metric)] == pytest.approx(vals.std(ddof=1) / 2.0)


def test_noiseless_identifiability_combined():
    cfg = SimConfig(n=80, p=200, reps=2, seed=7, sigma=0.0, grid_size=25,
                    c_grid=(0.125,), methods=("l1_hard",))
    rep = run_study(cfg)
    for row in rep.rows:
        assert row["fp"] == 0 and row["fn"] == 0


def test_pool_rows_equal_serial_rows_at_desk_size():
    # the rows the pool returns are the rows the calling process computes;
    # repr compares the NaN fields too
    cfg = SimConfig(n=80, p=200, reps=2, seed=20240817, grid_size=10,
                    methods=("lasso", "l1_scad", "oracle"))
    assert repr(run_study(cfg, threads=2).rows) == repr(run_study(cfg, threads=1).rows)


def _blas_threads():
    found = simulate._openblas_threads()
    return None if found is None else found[1]()


def _probe_worker(args):
    """simulate._worker whose rows also carry the worker's OpenBLAS thread
    count and its OS thread count, read after the replicate has run."""
    rows = simulate._replicate_rows(*args)
    with open("/proc/self/status", encoding="utf-8") as fh:
        os_threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return [dict(row, blas_threads=_blas_threads(), os_threads=os_threads) for row in rows]


def test_pool_workers_run_one_blas_thread_and_caller_is_untouched(monkeypatch,
                                                                  caller_blas_threads):
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to count a worker's OS threads")
    before = _blas_threads()
    pools = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(simulate, "_worker", _probe_worker)
    cfg = SimConfig(n=24, p=10, reps=2, seed=11, sigma=0.3, grid_size=8,
                    c_grid=(0.25,), methods=("lasso", "oracle"))
    rows = run_study(cfg, threads=2).rows
    assert _blas_threads() == before
    # a worker that restarted OpenBLAS would run a second OS thread
    assert {(row["blas_threads"], row["os_threads"]) for row in rows} == {(1, 1)}
    assert len(pools) == 1 and pools[0]["mp_context"].get_start_method() == "fork"


def test_caller_blas_threads_are_restored_when_a_worker_raises(monkeypatch,
                                                               caller_blas_threads):
    before = _blas_threads()
    replicate_rows = simulate._replicate_rows

    def replicate_1_fails(cfg, r):
        if r == 1:
            raise RuntimeError("replicate 1 failed")
        return replicate_rows(cfg, r)

    # forked workers inherit the patched module; threads=1 runs the
    # replicates in this process
    monkeypatch.setattr(simulate, "_replicate_rows", replicate_1_fails)
    cfg = SimConfig(n=24, p=10, reps=2, seed=11, sigma=0.3, grid_size=8,
                    c_grid=(0.25,), methods=("lasso", "oracle"))
    for threads in (2, 1):
        with pytest.raises(RuntimeError, match="replicate 1 failed"):
            run_study(cfg, threads=threads)
        assert _blas_threads() == before


@pytest.mark.parametrize("threads, reps", [(1, 2), (2, 1)])
def test_serial_study_runs_one_blas_thread_and_caller_is_untouched(monkeypatch,
                                                                   caller_blas_threads,
                                                                   threads, reps):
    seen, replicate_rows = [], simulate._replicate_rows

    def recording(cfg, r):
        seen.append(_blas_threads())
        return replicate_rows(cfg, r)

    monkeypatch.setattr(simulate, "_replicate_rows", recording)
    cfg = SimConfig(n=24, p=10, reps=reps, seed=11, sigma=0.3, grid_size=8,
                    c_grid=(0.25,), methods=("lasso", "oracle"))
    run_study(cfg, threads=threads)
    assert seen == [1] * reps
    assert _blas_threads() == 2
