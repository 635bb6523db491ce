"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``. The studies at desk scale
(n=80, p=200, 20 replicates and n=160, p=200, 20 replicates) dominate the
runtime; the whole module targets a few minutes on a laptop.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import hadamard

from l1concave.metrics import equicorr_gram_infnorm, noise_event_check
from l1concave.penalty import PenaltySpec, check_shape_conditions
from l1concave.scalar_prox import prox_combined
from l1concave.simulate import SimConfig, gen_design, run_study
from l1concave.solver import (RegressionProblem, default_lambda_grid, fit_combined,
                              fit_path, refit_ls, standardize, universal_lambda0)
from l1concave.tuning import bic_select
from oracles import prox_oracle

S_TRUE = 7  # nonzeros in the study coefficient vector


def report(cid: str, ok: bool, detail: str):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="module")
def desk_study():
    cfg = SimConfig(n=80, p=200, reps=20, seed=20240817, rho=0.5, sigma=0.25)
    t0 = time.perf_counter()
    rep = run_study(cfg, threads=None)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sign_study():
    cfg = SimConfig(n=160, p=200, reps=20, seed=424242, rho=0.5, sigma=0.1,
                    methods=("l1_scad", "l1_hard", "l1_sica"))
    return run_study(cfg, threads=None)


def _shape(kind, rng):
    return {"scad": rng.uniform(2.1, 5.0), "mcp": rng.uniform(1.1, 4.0),
            "sica": rng.uniform(0.05, 2.0)}.get(kind)


def test_c01_scalar_prox_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ("l1", "hard", "scad", "mcp", "sica"):
        for _ in range(1000):
            p = PenaltySpec(kind, rng.uniform(0.05, 1.0), lambda0=rng.uniform(0.0, 0.5),
                            shape=_shape(kind, rng))
            z = rng.uniform(-3.0, 3.0)
            worst = max(worst, abs(prox_combined(z, p) - prox_oracle(z, p)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report("C01", ok, f"scalar-prox oracle equivalence: max dev {worst:.2e}, "
                      f"runtime {elapsed:.1f}s for 5x1000 problems")
    assert worst <= 1e-5
    assert elapsed < 10.0


def test_c02_hard_closed_form_exact():
    zs = np.linspace(-3.0, 3.0, 10_001)
    bad = 0
    for lam0 in (0.1, 0.3, 0.5):
        for lam in (0.2, 0.5, 1.0):
            p = PenaltySpec("hard", lam, lambda0=lam0)
            expected = np.sign(zs) * (np.abs(zs) - lam0) * (np.abs(zs) > lam + lam0)
            got = np.array([prox_combined(float(z), p) for z in zs])
            bad += int(np.sum(got != expected))
    ok = bad == 0
    report("C02", ok, f"hard-threshold closed form exact on 9 pairs x 10001 points "
                      f"({bad} mismatches)")
    assert bad == 0


def test_c03_hard_thresholding_feature_on_fits():
    cases = [(PenaltySpec("hard", 0.4, lambda0=0.08), 0.0),
             (PenaltySpec("sica", 1.5, lambda0=0.1, shape=0.1), 0.4)]
    rng = np.random.default_rng(1003)
    violations = 0
    nonzeros = 0
    for spec, c1 in cases:
        assert check_shape_conditions(spec, c1).passes
        floor = (1.0 - c1) * spec.lam - 1e-5
        for _ in range(50):
            n, p = 50, 20
            X = rng.standard_normal((n, p))
            beta0 = np.zeros(p)
            beta0[:4] = rng.uniform(2.5, 3.5, size=4) * rng.choice([-1.0, 1.0], size=4)
            y = X @ beta0 + 0.3 * rng.standard_normal(n)
            Xs, _ = standardize(X)
            fit = fit_combined(RegressionProblem(Xs, y), spec)
            nz = fit.beta[fit.beta != 0.0]
            nonzeros += nz.size
            violations += int(np.sum(np.abs(nz) <= floor))
    ok = violations == 0 and nonzeros > 0
    report("C03", ok, f"hard-thresholding feature on 2x50 fits: {violations} violations "
                      f"among {nonzeros} nonzero coefficients")
    assert violations == 0 and nonzeros > 0


def test_c04_orthogonal_design_solver_oracle():
    n = 32
    X = hadamard(n).astype(float)
    rng = np.random.default_rng(1004)
    beta0 = np.zeros(n)
    beta0[:10] = rng.uniform(0.1, 1.5, size=10) * rng.choice([-1.0, 1.0], size=10)
    y = X @ beta0 + 0.2 * rng.standard_normal(n)
    z = X.T @ y / n

    spec_h = PenaltySpec("hard", 0.35, lambda0=0.15)
    fit_h = fit_combined(RegressionProblem(X, y), spec_h)
    closed = np.where(np.abs(z) > spec_h.lam + spec_h.lambda0,
                      np.sign(z) * (np.abs(z) - spec_h.lambda0), 0.0)
    dev_h = float(np.max(np.abs(fit_h.beta - closed)))

    devs = {"hard": dev_h}
    for kind in ("scad", "sica"):
        spec = PenaltySpec(kind, 0.3, lambda0=0.1)
        fit = fit_combined(RegressionProblem(X, y), spec)
        oracle = np.array([prox_oracle(float(zj), spec) for zj in z])
        devs[kind] = float(np.max(np.abs(fit.beta - oracle)))
    ok = devs["hard"] <= 1e-8 and devs["scad"] <= 1e-5 and devs["sica"] <= 1e-5
    report("C04", ok, "orthogonal-design oracle: max dev "
           + ", ".join(f"{k}={v:.2e}" for k, v in devs.items()))
    assert devs["hard"] <= 1e-8
    assert devs["scad"] <= 1e-5 and devs["sica"] <= 1e-5


def test_c05_objective_monotonicity():
    rng = np.random.default_rng(1005)
    worst = -math.inf
    sweeps = 0
    for kind in ("hard", "scad", "mcp", "sica"):
        for seed in range(3):
            n, p = 60, 80
            X = rng.standard_normal((n, p))
            beta0 = np.zeros(p)
            beta0[:5] = rng.uniform(0.5, 2.0, size=5) * rng.choice([-1.0, 1.0], size=5)
            y = X @ beta0 + 0.4 * rng.standard_normal(n)
            Xs, _ = standardize(X)
            spec = PenaltySpec(kind, rng.uniform(0.1, 0.4), lambda0=rng.uniform(0.02, 0.2))
            fit = fit_combined(RegressionProblem(Xs, y), spec)
            objs = fit.sweep_objectives
            sweeps += len(objs) - 1
            rel = np.diff(objs) / np.maximum(1.0, np.abs(objs[:-1]))
            worst = max(worst, float(rel.max(initial=-math.inf)))
    ok = worst <= 1e-12
    report("C05", ok, f"objective monotone over {sweeps} sweeps: worst relative "
                      f"increase {worst:.2e}")
    assert worst <= 1e-12


def test_c06_lambda_zero_reduces_to_lasso():
    rng = np.random.default_rng(1006)
    kinds = ("hard", "scad", "mcp", "sica", "l1")
    worst = 0.0
    for i in range(20):
        n, p = 60, 120
        X = rng.standard_normal((n, p))
        beta0 = np.zeros(p)
        beta0[:4] = rng.uniform(0.5, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        y = X @ beta0 + 0.3 * rng.standard_normal(n)
        Xs, _ = standardize(X)
        lam0 = rng.uniform(0.05, 0.3)
        spec = PenaltySpec(kinds[i % len(kinds)], 0.0, lambda0=lam0)
        prob = RegressionProblem(Xs, y)
        combined = fit_combined(prob, spec, tol=1e-9, max_iter=5000)
        lasso = fit_combined(prob, PenaltySpec("l1", lam0), tol=1e-9, max_iter=5000)
        worst = max(worst, float(np.max(np.abs(combined.beta - lasso.beta))))
    ok = worst <= 1e-6
    report("C06", ok, f"lam=0 reduction on 20 instances: max coordinate dev {worst:.2e}")
    assert worst <= 1e-6


def test_c07_refit_equals_oracle_when_support_recovered():
    rng = np.random.default_rng(1007)
    n, p, s = 100, 30, 5
    true_supp = np.arange(s)
    successes = 0
    worst = 0.0
    for _ in range(40):
        X = rng.standard_normal((n, p))
        X[:, 1:] = 0.5 * X[:, :-1] + math.sqrt(0.75) * X[:, 1:]
        beta0 = np.zeros(p)
        beta0[:s] = rng.uniform(0.8, 1.5, size=s) * rng.choice([-1.0, 1.0], size=s)
        y = X @ beta0 + 0.2 * rng.standard_normal(n)
        Xs, scales = standardize(X)
        lam0 = universal_lambda0(n, p, 0.25)
        spec = PenaltySpec("hard", 0.2, lambda0=lam0)
        prob = RegressionProblem(Xs, y)
        grid = default_lambda_grid(Xs, y, 25, 0.05)
        path = fit_path(prob, spec, grid, init=fit_combined(prob, PenaltySpec("l1", 2 * lam0)).beta)
        fit = path.fits[bic_select(path, prob).chosen_index]
        beta_orig = scales * fit.beta
        if (np.sign(beta_orig) == np.sign(beta0)).all():
            successes += 1
            orig = RegressionProblem(X, y)
            refit = refit_ls(orig, np.flatnonzero(fit.beta))
            oracle = refit_ls(orig, true_supp)
            worst = max(worst, float(np.max(np.abs(refit - oracle))))
    ok = successes >= 30 and worst <= 1e-10
    report("C07", ok, f"refit = oracle on {successes} sign-consistent replicates "
                      f"(need >= 30): max dev {worst:.2e}")
    assert successes >= 30
    assert worst <= 1e-10


def test_c08_equicorrelation_formula():
    worst = 0.0
    bound_ok = True
    for s in range(1, 51):
        for rho in np.arange(0.0, 0.91, 0.1):
            M = (1.0 - rho) * np.eye(s) + rho * np.ones((s, s))
            direct = float(np.max(np.abs(np.linalg.inv(M)).sum(axis=1)))
            val = equicorr_gram_infnorm(s, float(rho))
            worst = max(worst, abs(val - direct))
            bound_ok &= val <= 2.0 / (1.0 - rho) + 1e-12
    ok = worst <= 1e-10 and bound_ok
    report("C08", ok, f"equicorrelation inverse inf-norm: max |closed - direct| "
                      f"{worst:.2e}, dimension-free bound {'held' if bound_ok else 'violated'}")
    assert worst <= 1e-10 and bound_ok


def test_c09_desk_scale_study(desk_study):
    rep, elapsed = desk_study
    m = rep.means
    oracle_pe = m[("oracle", "pe")]
    combined = ("l1_scad", "l1_hard", "l1_sica")
    checks = {
        "a oracle PE in [0.0625, 0.08]": 0.0625 <= oracle_pe <= 0.08,
        "b combined PE <= 1.5x oracle": all(m[(c, "pe")] <= 1.5 * oracle_pe for c in combined),
        "c lasso PE >= 2.5x oracle": m[("lasso", "pe")] >= 2.5 * oracle_pe,
        "d combined FP <= 1, FN <= 0.2": all(m[(c, "fp")] <= 1.0 and m[(c, "fn")] <= 0.2
                                             for c in combined),
        "e lasso FP >= 5": m[("lasso", "fp")] >= 5.0,
        "runtime < 5 min": elapsed < 300.0,
    }
    ratios = {c: m[(c, "pe")] / oracle_pe for c in combined}
    ok = all(checks.values())
    report("C09", ok,
           f"desk study: oracle PE {oracle_pe:.4f}, ratios "
           + ", ".join(f"{c.split('_')[-1]}={v:.2f}" for c, v in ratios.items())
           + f", lasso ratio {m[('lasso', 'pe')]/oracle_pe:.2f}"
           + f", lasso FP {m[('lasso', 'fp')]:.1f}"
           + f", combined FP {max(m[(c, 'fp')] for c in combined):.2f}"
           + f", {elapsed:.0f}s"
           + ("" if ok else " | failed: " + "; ".join(k for k, v in checks.items() if not v)))
    assert all(checks.values()), checks


def test_c10_sign_consistency_regime(sign_study):
    rep = sign_study
    fractions = {}
    for method in rep.config.methods:
        fs = [row["fs"] for row in rep.rows if row["method"] == method]
        fractions[method] = float(np.mean([f == 0 for f in fs]))
    ok = all(v >= 0.9 for v in fractions.values())
    report("C10", ok, "sign consistency FS=0 fraction: "
           + ", ".join(f"{k}={v:.2f}" for k, v in fractions.items()) + " (need >= 0.9)")
    assert all(v >= 0.9 for v in fractions.values()), fractions


def test_c11_computable_certificates(desk_study):
    rep, _ = desk_study
    combined = [row for row in rep.rows if row["method"] in ("l1_scad", "l1_hard", "l1_sica")]
    good = [row["nnz"] <= 3 * S_TRUE and row["kkt_inf"] <= 4.0 * row["lambda0"]
            for row in combined]
    frac = float(np.mean(good))
    ok = frac >= 0.95
    report("C11", ok, f"certificates on BIC-selected combined fits: "
                      f"{frac:.3f} satisfy nnz <= 3s and kkt <= 4*lambda0 (need >= 0.95)")
    assert frac >= 0.95


def test_c12_noise_event_frequency():
    """Event E = {||n^-1 X'eps||_inf <= lambda0/2} at (n, p) = (80, 200).

    With columns standardised to norm sqrt(n), each n^-1 X_j'eps is
    N(0, sigma^2/n) given X. A Gaussian tail and a union bound over the p
    coordinates give P(E) >= b = 1 - p erfc(t / sqrt(2)), with
    t = c sqrt(log max(n, p)) / (2 sigma) for lambda0 = universal_lambda0(n, p, c).
    Over 200 draws the frequency must reach b - 3 sqrt(b(1 - b) / 200), a
    three-standard-error Monte-Carlo margin, at c = 2 sqrt(2) sigma and
    c = 4 sigma. At c = 2 sigma the bound is negative, so it promises nothing
    and that frequency is only reported.
    """
    n, p, sigma = 80, 200, 0.25
    draws = 200
    consts = (2.0 * math.sqrt(2.0), 4.0, 2.0)
    hits = dict.fromkeys(consts, 0)
    for i in range(draws):
        X, _ = standardize(gen_design(n, p, 0.5, np.random.SeedSequence((1012, i, 0))))
        rng = np.random.default_rng(np.random.SeedSequence((1012, i, 1)))
        eps = sigma * rng.standard_normal(n)
        for k in consts:
            hits[k] += noise_event_check(X, eps, universal_lambda0(n, p, k * sigma))
    parts, failed = [], []
    for k in consts:
        freq = hits[k] / draws
        t = k * math.sqrt(math.log(max(n, p))) / 2.0
        b = 1.0 - p * math.erfc(t / math.sqrt(2.0))
        if b <= 0.0:
            parts.append(f"c={k:.2f} sigma: {freq:.3f} (bound {b:.2f} is vacuous, not checked)")
            continue
        floor = b - 3.0 * math.sqrt(b * (1.0 - b) / draws)
        parts.append(f"c={k:.2f} sigma: {freq:.3f} (bound {b:.4f}, need >= {floor:.3f})")
        if freq < floor:
            failed.append(k)
    report("C12", not failed, f"noise event frequency over {draws} standardised draws, "
                              f"need >= b - 3 SE with b = 1 - p erfc(t/sqrt 2); "
                              + "; ".join(parts))
    assert not failed


def test_c13_study_thread_determinism(tmp_path):
    from l1concave.cli import main

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "n = 40\np = 24\nreps = 6\nseed = 1013\nsigma = 0.3\n"
        "methods = lasso, l1_hard, oracle\ngrid_size = 10\n"
        "c_grid = 0.25, 1.0\n"
    )
    raw1, raw2 = tmp_path / "raw1.csv", tmp_path / "raw2.csv"
    rc1 = main(["study", "--config", str(cfg), "--threads", "1",
                "--report", str(tmp_path / "rep1.csv"), "--raw", str(raw1)])
    rc2 = main(["study", "--config", str(cfg), "--threads", "8",
                "--report", str(tmp_path / "rep2.csv"), "--raw", str(raw2)])
    same = raw1.read_bytes() == raw2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    report("C13", ok, f"raw.csv byte-identical at --threads 1 vs 8: {same}")
    assert rc1 == 0 and rc2 == 0
    assert same
