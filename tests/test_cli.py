import math

import numpy as np
import pytest

from l1concave.cli import main
from l1concave.penalty import PenaltySpec
from l1concave.scalar_prox import prox_combined
from l1concave.simulate import combined_lambda_grid
from l1concave.solver import RegressionProblem, fit_path, standardize
from l1concave.tuning import bic_select, cv_select


def write_csv(path, arr, header):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [header] + [",".join(format(v, ".17g") for v in row) for row in arr]
    path.write_text("\n".join(lines) + "\n")


def make_data(tmp_path, n=30, p=8, seed=3, sigma=0.2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: min(3, p)] = [2.0, -1.5, 1.0][: min(3, p)]
    y = X @ beta + sigma * rng.standard_normal(n)
    dpath, rpath = tmp_path / "design.csv", tmp_path / "response.csv"
    write_csv(dpath, X, ",".join(f"x{j}" for j in range(p)))
    write_csv(rpath, y[:, None], "y")
    return dpath, rpath, X, y


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_fit_one_by_one_equals_prox(tmp_path):
    write_csv(tmp_path / "d.csv", [[2.0]], "x0")
    write_csv(tmp_path / "r.csv", [[3.0]], "y")
    out = tmp_path / "fit.csv"
    rc = main(["fit", str(tmp_path / "d.csv"), str(tmp_path / "r.csv"),
               "--penalty", "hard", "--lambda", "0.4", "--lambda0", "0.1",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["index", "beta", "beta_std"]
    # standardized column is (1.0,), so the target is z = y = 3.0
    spec = PenaltySpec("hard", 0.4, lambda0=0.1)
    assert float(rows[0][2]) == prox_combined(3.0, spec)
    # original-scale coefficient is beta_std * (sqrt(n)/||x||) = beta_std / 2
    assert float(rows[0][1]) == pytest.approx(prox_combined(3.0, spec) / 2.0)


def test_fit_huge_lambda_all_zero(tmp_path):
    dpath, rpath, _, _ = make_data(tmp_path)
    out = tmp_path / "fit.csv"
    rc = main(["fit", str(dpath), str(rpath), "--penalty", "l1",
               "--lambda", "1e9", "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out)
    assert all(float(r[1]) == 0.0 for r in rows)


def test_fit_score_roundtrip(tmp_path, capsys):
    dpath, rpath, _, _ = make_data(tmp_path)
    out = tmp_path / "fit.csv"
    args = ["--penalty", "scad", "--lambda", "0.3", "--lambda0", "0.05"]
    rc = main(["fit", str(dpath), str(rpath), *args, "--out", str(out)])
    assert rc == 0
    fit_out = capsys.readouterr().out
    reported = float(next(l for l in fit_out.splitlines() if l.startswith("objective")).split()[1])
    rc = main(["score", str(dpath), str(rpath), *args, "--fit", str(out)])
    assert rc == 0
    rescored = float(capsys.readouterr().out.split()[1])
    assert abs(rescored - reported) <= 1e-10 * max(1.0, abs(reported))


def test_malformed_csv_reports_row_col(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1.0,2.0\n3.0,oops\n")
    resp = tmp_path / "r.csv"
    resp.write_text("y\n1.0\n2.0\n")
    rc = main(["fit", str(bad), str(resp)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "column 2" in err


def test_nan_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0\n1.0\nnan\n")
    resp = tmp_path / "r.csv"
    resp.write_text("y\n1.0\n2.0\n")
    rc = main(["fit", str(bad), str(resp)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_path_single_and_marker(tmp_path):
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "hard",
               "--lambda0", "0.05", "--lambdas", "0.4", "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out)
    assert len(rows) == 1 and rows[0][-1] == "1"

    rc = main(["path", str(dpath), str(rpath), "--penalty", "hard",
               "--lambda0", "0.05", "--grid-size", "8", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    selected = [k for k, r in enumerate(rows) if r[header.index("selected")] == "1"]
    # cross-check the marker against the library selection on the study's grid
    Xs, _ = standardize(X)
    prob = RegressionProblem(Xs, y, penalty=PenaltySpec("hard", 0.1, lambda0=0.05),
                             standardized=True)
    lam_max = float(np.max(np.abs(Xs.T @ y)) / len(y))
    grid = combined_lambda_grid("hard", None, 0.05, lam_max, 8, 0.05)
    path = fit_path(prob, grid, cv_folds=10, cv_seed=0)
    sel = bic_select(path, prob)
    assert selected == [sel.chosen_index]


def test_path_cv_marks_cv_choice(tmp_path, capsys):
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "scad", "--lambda0", "0.05",
               "--grid-size", "6", "--folds", "3", "--cv", "--out", str(out)])
    assert rc == 0 and "cv-selected" in capsys.readouterr().out
    header, rows = read_rows(out)
    selected = [k for k, r in enumerate(rows) if r[header.index("selected")] == "1"]
    Xs, _ = standardize(X)
    prob = RegressionProblem(Xs, y, penalty=PenaltySpec("scad", 0.1, lambda0=0.05),
                             standardized=True)
    grid = [float(r[header.index("lambda")]) for r in rows]
    assert selected == [cv_select(prob, grid, folds=3, seed=0).chosen_index]


def test_path_sica_scans_study_thresholds(tmp_path):
    # the default sica grid sweeps the same selection thresholds as the study
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "sica", "--lambda0", "0.05",
               "--grid-size", "6", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    Xs, _ = standardize(X)
    lam_max = float(np.max(np.abs(Xs.T @ y)) / len(y))
    grid = combined_lambda_grid("sica", None, 0.05, lam_max, 6, 0.05)
    assert [float(r[header.index("lambda")]) for r in rows] == grid.tolist()


def test_path_bad_grid_exits_1(tmp_path, capsys):
    dpath, rpath, _, _ = make_data(tmp_path)
    rc = main(["path", str(dpath), str(rpath), "--lambdas", "0.1,0.2"])
    assert rc == 1
    assert "decreasing" in capsys.readouterr().err
    # a lambda0 so large that lambda0 + lam_max rounds to lambda0 leaves no grid
    rc = main(["path", str(dpath), str(rpath), "--penalty", "sica", "--lambda0", "1e20",
               "--out", str(tmp_path / "path.csv")])
    assert rc == 1
    assert "--lambdas" in capsys.readouterr().err


def test_study_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 20\np = 10\nreps = 1\nseed = 1\nbogus_key = 3\n")
    assert main(["study", "--config", str(cfg)]) == 1
    assert "bogus_key" in capsys.readouterr().err
    cfg.write_text("n = 20\np = 10\nreps = 1\nseed = 1\nmethods = \n")
    assert main(["study", "--config", str(cfg)]) == 1
    assert "methods" in capsys.readouterr().err
    cfg.write_text("n = 20\np = 10\nreps = 1\n")
    assert main(["study", "--config", str(cfg)]) == 1
    assert "seed" in capsys.readouterr().err


def test_study_reps1_deterministic(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "n = 24\np = 10\nreps = 1\nseed = 11\nsigma = 0.3\n"
        "methods = lasso, oracle\ngrid_size = 8\ncv_folds = 3\n"
        f"report = {tmp_path/'rep.csv'}\nraw = {tmp_path/'raw1.csv'}\n"
    )
    assert main(["study", "--config", str(cfg), "--threads", "1"]) == 0
    first = (tmp_path / "raw1.csv").read_bytes()
    assert main(["study", "--config", str(cfg), "--threads", "1",
                 "--raw", str(tmp_path / "raw2.csv")]) == 0
    assert (tmp_path / "raw2.csv").read_bytes() == first


def test_csv_roundtrip_bit_for_bit(tmp_path):
    from l1concave.cli import read_matrix_csv

    rng = np.random.default_rng(20)
    arr = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
    path = tmp_path / "round.csv"
    write_csv(path, arr, "a,b,c,d")
    back = read_matrix_csv(str(path))
    assert np.array_equal(back, arr)


def test_fit_with_intercept(tmp_path, capsys):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((40, 5))
    beta = np.array([1.5, -1.0, 0.0, 0.0, 0.0])
    y = 3.0 + X @ beta + 0.05 * rng.standard_normal(40)
    write_csv(tmp_path / "d.csv", X, "a,b,c,d,e")
    write_csv(tmp_path / "r.csv", y[:, None], "y")
    rc = main(["fit", str(tmp_path / "d.csv"), str(tmp_path / "r.csv"),
               "--penalty", "hard", "--lambda", "0.3", "--lambda0", "0.02",
               "--intercept", "--out", str(tmp_path / "fit.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    icpt = float(next(l for l in out.splitlines() if l.startswith("intercept")).split()[1])
    assert icpt == pytest.approx(3.0, abs=0.15)


def test_audit_identity_and_duplicates(tmp_path):
    n = 9
    write_csv(tmp_path / "iden.csv", math.sqrt(n) * np.eye(n),
              ",".join(f"x{j}" for j in range(n)))
    out = tmp_path / "audit.csv"
    rc = main(["audit", str(tmp_path / "iden.csv"), "--s", "2", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["kappa0_k4"] == pytest.approx(1.0, abs=1e-10)
    assert table["phi_max"] == pytest.approx(1.0, abs=1e-10)
    assert table["equicorr_infnorm_rho0.5"] == pytest.approx(2.0)

    X = np.ones((6, 3))
    X[:, 1] = np.linspace(1, 2, 6)
    X[:, 2] = X[:, 0]
    write_csv(tmp_path / "dup.csv", X, "a,b,c")
    rc = main(["audit", str(tmp_path / "dup.csv"), "--s", "1", "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out)
    table = {r[0]: float(r[1]) for r in rows}
    assert table["kappa0_k2"] == pytest.approx(0.0, abs=1e-10)
