import dataclasses
import math
import re

import numpy as np
import pytest

from l1concave import scalar_prox
from l1concave.cli import _STUDY_KEYS, CLIError, main, read_matrix_csv
from l1concave.penalty import PenaltySpec
from l1concave.scalar_prox import prox_combined
from l1concave.simulate import SimConfig, _fmt, combined_lambda_grid
from l1concave.solver import (RegressionProblem, default_lambda_grid, fit_combined, fit_path,
                              standardize, universal_lambda0)
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


@pytest.mark.parametrize("kind", ["hard", "l1", "scad"])
def test_fit_overflowing_lambda_exits_1_without_output(tmp_path, capsys, kind):
    # lam**2 overflows a float at lam = 1e200
    dpath, rpath, _, _ = make_data(tmp_path, n=20, p=5)
    out = tmp_path / "fit.csv"
    rc = main(["fit", str(dpath), str(rpath), "--penalty", kind, "--lambda", "1e200",
               "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    # the true sparsity is unknown, so no sparsity premise is claimed
    cert = next(l for l in fit_out.splitlines() if l.startswith("certificate"))
    assert cert.startswith("certificate residual=") and "sparsity=" not in cert


@pytest.mark.parametrize("argv", [
    ["fit", "X.csv", "y.csv", "--lambda", "abc"], ["fit", "X.csv"],
    ["path", "X.csv", "y.csv", "--lambda", "0.1"],
    ["score", "X.csv", "y.csv", "--fit", "fit.csv", "--tol", "1e-5"],
    ["score", "X.csv", "y.csv", "--fit", "fit.csv", "--max-iter", "5"],
])
def test_usage_error_exits_1(argv, capsys):
    # exit 2 is reserved for nonconvergence
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit"], ["score", "--fit", "fit.csv"], ["path"]],
                         ids=["fit", "score", "path"])
def test_lambda0_and_c_exclude_each_other(command, capsys):
    # --c sets lambda0 itself, so passing both is a usage error, not a silent override
    with pytest.raises(SystemExit) as exc:
        main([command[0], "X.csv", "y.csv", *command[1:], "--lambda0", "0.3", "--c", "0.1"])
    assert exc.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["path", "--help"])
    assert exc.value.code == 0
    assert "--grid-size" in capsys.readouterr().out


def test_malformed_csv_reports_row_col(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1.0,2.0\n3.0,oops\n")
    resp = tmp_path / "r.csv"
    resp.write_text("y\n1.0\n2.0\n")
    rc = main(["fit", str(bad), str(resp)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "column 2" in err


@pytest.mark.parametrize("row, message", [
    ("1.0,inf,oops", "row 3, column 2: non-finite value 'inf'"),
    ("1.0,oops,nan", "row 3, column 2: not a number: 'oops'"),
    ("nan,1.0,oops", "row 3, column 1: non-finite value 'nan'"),
    ("1.0,2.0,-1e999", "row 3, column 3: non-finite value '-1e999'"),
])
def test_csv_reports_the_first_bad_cell_of_a_row(tmp_path, row, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"x0,x1,x2\n1.0,2.0,3.0\n{row}\n4.0,oops,5.0\n")
    with pytest.raises(CLIError) as exc:
        read_matrix_csv(str(bad))
    assert str(exc.value) == f"{bad}: {message}"


def test_nan_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0\n1.0\nnan\n")
    resp = tmp_path / "r.csv"
    resp.write_text("y\n1.0\n2.0\n")
    rc = main(["fit", str(bad), str(resp)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_path_single_and_marker(tmp_path, capsys):
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "hard",
               "--lambda0", "0.05", "--lambdas", "0.4", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert len(rows) == 1 and rows[0][-1] == "1"
    assert rows[0][header.index("lambda")] == _fmt(0.4)
    assert f"bic-selected index 0 (lambda={_fmt(0.4)})" in capsys.readouterr().out

    rc = main(["path", str(dpath), str(rpath), "--penalty", "hard",
               "--lambda0", "0.05", "--grid-size", "8", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    selected = [k for k, r in enumerate(rows) if r[header.index("selected")] == "1"]
    # cross-check the marker against the library selection on the study's grid
    Xs, _ = standardize(X)
    prob, spec = RegressionProblem(Xs, y), PenaltySpec("hard", 0.1, lambda0=0.05)
    grid = combined_lambda_grid(spec, default_lambda_grid(Xs, y, 8, 0.05))
    path = fit_path(prob, spec, grid)
    sel = bic_select(path, prob)
    assert selected == [sel.chosen_index]
    assert [r[header.index("lambda")] for r in rows] == [_fmt(lam) for lam in grid]
    assert [r[header.index("rss")] for r in rows] == [_fmt(fit.rss) for fit in path.fits]
    assert [r[header.index("bic")] for r in rows] == [_fmt(v) for v in sel.criterion_values]


def test_path_cv_marks_cv_choice(tmp_path, capsys):
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "scad", "--lambda0", "0.05",
               "--grid-size", "6", "--folds", "3", "--cv", "--out", str(out)])
    assert rc == 0 and "cv-selected" in capsys.readouterr().out
    header, rows = read_rows(out)
    selected = [k for k, r in enumerate(rows) if r[header.index("selected")] == "1"]
    Xs, _ = standardize(X)
    prob, spec = RegressionProblem(Xs, y), PenaltySpec("scad", 0.1, lambda0=0.05)
    grid = [float(r[header.index("lambda")]) for r in rows]
    assert selected == [cv_select(prob, spec, grid, 3, seed=0).chosen_index]
    path = fit_path(prob, spec, grid)
    assert [float(r[header.index("kkt_inf")]) for r in rows] == [f.kkt_inf for f in path.fits]
    assert [int(r[header.index("nnz")]) for r in rows] == [f.nnz for f in path.fits]


def path_cells(path, sel, bic):
    """The cells cli path writes for a path, its selection and its BIC trace."""
    return [[_fmt(fit.penalty.lam), str(fit.nnz), _fmt(np.abs(fit.beta).sum()),
             _fmt(np.max(np.abs(fit.beta))), _fmt(fit.kkt_inf), _fmt(fit.rss),
             _fmt(bic.criterion_values[k]), str(int(fit.converged)),
             "1" if k == sel.chosen_index else "0"] for k, fit in enumerate(path.fits)]


def spy_on_cv_select(monkeypatch):
    from l1concave import cli

    seen, real = [], cli.cv_select

    def spy(prob, spec, grid, folds, **kwargs):
        seen.append({"kind": spec.kind, "folds": folds,
                     **{k: kwargs.get(k) for k in ("seed", "tol", "max_iter")}})
        return real(prob, spec, grid, folds, **kwargs)

    monkeypatch.setattr(cli, "cv_select", spy)
    return seen


@pytest.mark.parametrize("cv", [False, True])
def test_path_default_grid_starts_from_zero(tmp_path, monkeypatch, cv):
    # zero is a certified fit at the default grid's first level, so the path
    # starts there and runs a CV only for the --cv selection; every CV, from
    # whichever module, draws its folds once
    from l1concave import tuning

    drawn, real = [], tuning.fold_assignment
    monkeypatch.setattr(tuning, "fold_assignment",
                        lambda n, folds, seed: drawn.append(folds) or real(n, folds, seed))
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "hard", "--c", "0.25",
               "--grid-size", "7", "--folds", "3", "--out", str(out)] + ["--cv"] * cv)
    assert rc == 0
    assert drawn == [3] * cv
    Xs, _ = standardize(X)
    prob = RegressionProblem(Xs, y)
    n, p = Xs.shape
    spec = PenaltySpec("hard", 0.0, lambda0=universal_lambda0(n, p, 0.25))
    grid = combined_lambda_grid(spec, default_lambda_grid(Xs, y, 7, 0.05))
    path = fit_path(prob, spec, grid)
    bic = bic_select(path, prob)
    sel = cv_select(prob, spec, grid, 3) if cv else bic
    assert read_rows(out)[1] == path_cells(path, sel, bic)


def test_path_lambdas_starts_from_the_lasso_at_the_cv_level(tmp_path, monkeypatch):
    # a hand grid may start below lambda_max, so it starts from the lasso fitted
    # at the level of default_lambda_grid that a lasso CV picks, run at the
    # path's own folds, seed, tol and max_iter
    seen = spy_on_cv_select(monkeypatch)
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "scad", "--lambda0", "0.05",
               "--lambdas", "0.3,0.1,0.03", "--folds", "4", "--seed", "3", "--tol", "1e-6",
               "--max-iter", "200", "--out", str(out)])
    assert rc == 0
    assert seen == [{"kind": "l1", "folds": 4, "seed": 3, "tol": 1e-6, "max_iter": 200}]
    Xs, _ = standardize(X)
    prob, cv_grid = RegressionProblem(Xs, y), default_lambda_grid(Xs, y)
    start_sel = cv_select(prob, PenaltySpec("l1", 0.0), cv_grid, 4, seed=3, tol=1e-6,
                          max_iter=200)
    start = fit_combined(prob, PenaltySpec("l1", float(cv_grid[start_sel.chosen_index])),
                         tol=1e-6, max_iter=200)
    assert start.converged
    spec = PenaltySpec("scad", 0.0, lambda0=0.05)
    path = fit_path(prob, spec, [0.3, 0.1, 0.03], init=start.beta, tol=1e-6, max_iter=200)
    bic = bic_select(path, prob)
    assert read_rows(out)[1] == path_cells(path, bic, bic)


def test_path_cv_start_uses_tol_and_max_iter(tmp_path, monkeypatch):
    # the cross-validated lasso start of a --lambdas grid runs at the path's
    # own tol and max_iter
    seen = spy_on_cv_select(monkeypatch)
    dpath, rpath, _, _ = make_data(tmp_path)
    rc = main(["path", str(dpath), str(rpath), "--penalty", "scad", "--lambda0", "0.05",
               "--lambdas", "0.4,0.2,0.1,0.05", "--folds", "3", "--seed", "4", "--tol", "1e-4",
               "--max-iter", "37", "--out", str(tmp_path / "path.csv")])
    assert rc in (0, 2)
    assert seen == [{"kind": "l1", "folds": 3, "seed": 4, "tol": 1e-4, "max_iter": 37}]


def test_path_reports_nonconverged_cv_on_stderr(tmp_path, capsys):
    dpath, rpath, _, _ = make_data(tmp_path)
    argv = ["path", str(dpath), str(rpath), "--penalty", "scad", "--lambda0", "0.05",
            "--lambdas", "0.4,0.2,0.1,0.05", "--folds", "3", "--cv",
            "--out", str(tmp_path / "path.csv")]
    assert main(argv) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    assert main(argv + ["--max-iter", "1"]) == 2
    out, err = capsys.readouterr()
    start, selection = err.splitlines()
    counts = (r"([1-9]\d*) of (\d+) coordinate-descent fold fits stopped at max_iter, "
              "0 folds skipped")
    assert re.fullmatch(f"warning: the lasso start's CV: {counts}; its full-data start fit "
                        "stopped at max_iter", start)
    assert re.fullmatch(f"warning: the --cv selection: {counts}", selection).group(2) == "12"
    assert out.count("\n") == clean.out.count("\n") == 2


def test_path_sica_scans_study_thresholds(tmp_path):
    # the default sica grid sweeps the same selection thresholds as the study
    dpath, rpath, X, y = make_data(tmp_path)
    out = tmp_path / "path.csv"
    rc = main(["path", str(dpath), str(rpath), "--penalty", "sica", "--lambda0", "0.05",
               "--grid-size", "6", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    Xs, _ = standardize(X)
    spec = PenaltySpec("sica", 0.0, lambda0=0.05)
    grid = combined_lambda_grid(spec, default_lambda_grid(Xs, y, 6, 0.05))
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


@pytest.mark.parametrize("flags, flag", [
    (["--grid-size", "0"], "--grid-size"), (["--grid-size", "-2"], "--grid-size"),
    (["--grid-ratio", "2"], "--grid-ratio"), (["--grid-ratio", "1"], "--grid-ratio"),
    (["--grid-ratio", "0"], "--grid-ratio"), (["--grid-ratio", "nan"], "--grid-ratio"),
    (["--folds", "1"], "--folds"), (["--folds", "31"], "--folds"),
])
def test_path_bad_grid_flag_is_named(tmp_path, capsys, flags, flag):
    dpath, rpath, _, _ = make_data(tmp_path)
    rc = main(["path", str(dpath), str(rpath), *flags, "--out", str(tmp_path / "path.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {flag} must") and "--lambdas" not in err


@pytest.mark.parametrize("command, flags", [
    ("path", ["--grid-size", "0"]), ("path", ["--grid-ratio", "2"]),
    ("path", ["--grid-ratio", "1"]),
    ("fit", ["--tol", "0"]), ("fit", ["--max-iter", "0"]), ("path", ["--tol", "-1"]),
    ("fit", ["--lambda0", "inf"]), ("fit", ["--c", "inf"]), ("fit", ["--lambda", "inf"]),
    ("fit", ["--penalty", "scad", "--shape", "inf"]), ("fit", ["--tol", "inf"]),
    ("path", ["--lambdas", "inf,1"]),
])
def test_bad_solver_setting_exits_1_without_output(tmp_path, capsys, command, flags):
    dpath, rpath, _, _ = make_data(tmp_path)
    out = tmp_path / "out.csv"
    rc = main([command, str(dpath), str(rpath), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


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


STUDY_BODY = "n = 24\np = 10\nreps = 2\nseed = 11\nmethods = lasso, oracle\ngrid_size = 8\n"


@pytest.mark.parametrize("setting, flags", [
    ("c_grid = -1", []), ("c_grid = 0.5, x", []), ("cv_folds = 3", []), ("rho = 1", []),
    ("grid_size = 0", []), ("grid_ratio = 1", []), ("tol = -1", []), ("max_iter = 0", []),
    ("test_mode = sampled", []), ("threads = -3", []), ("beta0 = 1, x", []), ("", ["--threads", "0"]),
    ("sigma = nan", []), ("sigma = inf", []), ("c_grid = inf", []),
    ("beta0 = " + "1, " * 9 + "inf", []), ("methods = lasso, lasso", []),
])
def test_study_bad_setting_exits_1_before_running(tmp_path, capsys, setting, flags):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(STUDY_BODY + setting + "\n")
    report, raw = tmp_path / "rep.csv", tmp_path / "raw.csv"
    rc = main(["study", "--config", str(cfg), "--report", str(report), "--raw", str(raw), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not report.exists() and not raw.exists()
    key = setting.split(" = ")[0] or flags[0].lstrip("-")
    assert key in err
    if key in ("test_mode", "cv_folds"):  # a key of an older config fails loudly
        assert f"unknown key '{key}'" in err


def bad_input_case(tmp_path, monkeypatch, case):
    """argv, exit code and the parts its one error line must name, for a bad input."""
    d, r = (str(f) for f in make_data(tmp_path, n=6, p=3)[:2])
    bad = tmp_path / "bad.csv"
    cfg = tmp_path / "study.cfg"
    study = ["study", "--config", str(cfg), "--report", str(tmp_path / "rep.csv"),
             "--raw", str(tmp_path / "raw.csv")]
    out = ["--out", str(tmp_path / "out.csv")]
    if case == "unopenable_csv":
        return ["fit", str(tmp_path / "missing.csv"), r, *out], 1, ["cannot open", "missing.csv"]
    if case == "empty_csv":
        bad.write_text("")
        return ["fit", str(bad), r, *out], 1, [str(bad), "empty file"]
    if case == "blank_line_then_short_row":  # the blank line 3 is skipped, still counted
        bad.write_text("x0,x1,x2\n1,2,3\n\n4,5\n")
        return ["fit", str(bad), r, *out], 1, [str(bad), "row 4 has 2 fields, expected 3"]
    if case == "long_response_row":
        bad.write_text("y\n1\n2,3\n")
        return ["fit", d, str(bad), *out], 1, [str(bad), "row 3 has 2 fields, expected 1"]
    if case == "header_only":
        bad.write_text("x0,x1,x2\n")
        return ["fit", str(bad), r, *out], 1, [str(bad), "no data rows"]
    if case == "two_column_response":
        write_csv(bad, np.ones((6, 2)), "y,z")
        return ["fit", d, str(bad), *out], 1, [str(bad), "expected a single column, found 2"]
    if case == "response_length":
        write_csv(bad, np.ones((5, 1)), "y")
        return ["fit", d, str(bad), *out], 1, [str(bad), "length 5", "design rows 6"]
    if case == "score_fit_shape":
        write_csv(bad, np.ones((2, 3)), "index,beta,beta_std")
        return ["score", d, r, "--fit", str(bad)], 1, [str(bad), "expected 3 rows"]
    if case == "unopenable_config":
        study[2] = str(tmp_path / "missing.cfg")
        return study, 1, ["cannot open", "missing.cfg"]
    if case == "config_line_without_equals":
        cfg.write_text("n = 20\np 10\n")
        return study, 1, [str(cfg), "line 2", "expected key = value"]
    if case == "config_value_does_not_cast":
        cfg.write_text("n = twenty\n")
        return study, 1, [str(cfg), "line 1", "bad value for n", "'twenty'"]
    if case == "audit_s_zero":
        return ["audit", d, "--s", "0", *out], 1, ["--s must be at least 1"]
    if case == "audit_samples_zero":  # rejected before the design is opened
        return (["audit", str(tmp_path / "missing.csv"), "--s", "2", "--samples", "0", *out], 1,
                ["samples must be at least 1"])
    assert case == "runtime_error"
    # a prox that returns its target unpenalized raises the objective of the
    # one-coordinate problem z = 3 at the l1 level 2, which the engine reports
    write_csv(tmp_path / "d1.csv", [[2.0]], "x0")
    write_csv(tmp_path / "r1.csv", [[3.0]], "y")
    monkeypatch.setattr(scalar_prox, "make_prox", lambda spec: (lambda z: z))
    return (["fit", str(tmp_path / "d1.csv"), str(tmp_path / "r1.csv"), "--penalty", "l1",
             "--lambda", "2", *out], 2, ["objective increased across a sweep"])


@pytest.mark.parametrize("case", [
    "unopenable_csv", "empty_csv", "blank_line_then_short_row", "long_response_row",
    "header_only", "two_column_response", "response_length", "score_fit_shape",
    "unopenable_config", "config_line_without_equals", "config_value_does_not_cast",
    "audit_s_zero", "audit_samples_zero", "runtime_error",
])
def test_bad_input_gives_one_error_line_and_no_csv(tmp_path, capsys, monkeypatch, case):
    argv, code, parts = bad_input_case(tmp_path, monkeypatch, case)
    before = sorted(tmp_path.glob("*.csv"))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert all(part in captured.err for part in parts), captured.err
    assert sorted(tmp_path.glob("*.csv")) == before


def test_study_seed_flag_overrides_the_config_seed(tmp_path, monkeypatch):
    from l1concave import cli

    seen, real = [], cli.run_study

    def spy(cfg, threads=1):
        seen.append(cfg.seed)
        return real(cfg, threads=1)

    monkeypatch.setattr(cli, "run_study", spy)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("n = 24\np = 10\nreps = 1\nseed = 11\nmethods = oracle\ngrid_size = 8\n"
                   f"report = {tmp_path/'rep.csv'}\nraw = {tmp_path/'raw.csv'}\n")
    assert main(["study", "--config", str(cfg)]) == 0
    assert main(["study", "--config", str(cfg), "--seed", "12"]) == 0
    assert seen == [11, 12]


def test_study_keys_are_the_simconfig_fields_plus_run_keys():
    assert set(_STUDY_KEYS) - {"threads", "report", "raw"} == {
        f.name for f in dataclasses.fields(SimConfig)}


def test_audit_s_equal_to_p_exits_1(tmp_path, capsys):
    dpath, _, _, _ = make_data(tmp_path, p=4)
    rc = main(["audit", str(dpath), "--s", "4", "--out", str(tmp_path / "audit.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: s must satisfy")


def test_audit_csv_does_not_depend_on_the_callers_blas_threads(tmp_path, caller_blas_threads):
    # at 100 x 300 OpenBLAS threads the Gram product, and the last bits of
    # phi_max depend on how many threads share it
    setter, getter = caller_blas_threads
    n, p = 100, 300
    write_csv(tmp_path / "X.csv", np.random.default_rng(0).standard_normal((n, p)),
              ",".join(f"x{j}" for j in range(p)))
    for threads in (2, 1):
        setter(threads)
        assert main(["audit", str(tmp_path / "X.csv"), "--s", "2", "--samples", "200",
                     "--out", str(tmp_path / f"audit{threads}.csv")]) == 0
        assert getter() == threads
    assert (tmp_path / "audit2.csv").read_bytes() == (tmp_path / "audit1.csv").read_bytes()


def test_audit_runs_one_blas_thread_and_gives_the_caller_its_count_back(
        tmp_path, capsys, monkeypatch, caller_blas_threads):
    from l1concave import cli

    _, getter = caller_blas_threads
    seen, real = [], cli.sparse_eigenvalue

    def recording(*args, **kwargs):
        seen.append(getter())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sparse_eigenvalue", recording)
    dpath, _, _, _ = make_data(tmp_path, p=4)
    out = str(tmp_path / "audit.csv")
    assert main(["audit", str(dpath), "--s", "2", "--out", out]) == 0
    assert getter() == 2
    # s = p passes the flag check and fails inside the diagnostics
    assert main(["audit", str(dpath), "--s", "4", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: s must satisfy")
    assert getter() == 2
    assert seen == [1, 1]


def test_negative_c_exits_1(tmp_path, capsys):
    dpath, rpath, _, _ = make_data(tmp_path)
    rc = main(["fit", str(dpath), str(rpath), "--c", "-1", "--out", str(tmp_path / "fit.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: c must be nonnegative\n"


def test_study_reps1_deterministic(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "n = 24\np = 10\nreps = 1\nseed = 11\nsigma = 0.3\n"
        "methods = lasso, oracle\ngrid_size = 8\n"
        f"report = {tmp_path/'rep.csv'}\nraw = {tmp_path/'raw1.csv'}\n"
    )
    assert main(["study", "--config", str(cfg), "--threads", "1"]) == 0
    first = (tmp_path / "raw1.csv").read_bytes()
    assert main(["study", "--config", str(cfg), "--threads", "1",
                 "--raw", str(tmp_path / "raw2.csv")]) == 0
    assert (tmp_path / "raw2.csv").read_bytes() == first


def test_study_threads_default_to_all_cores(tmp_path, monkeypatch):
    from l1concave import cli

    seen, real = [], cli.run_study

    def spy(cfg, threads=1):
        seen.append(threads)
        return real(cfg, threads=1)

    monkeypatch.setattr(cli, "run_study", spy)
    cfg = tmp_path / "study.cfg"
    body = ("n = 24\np = 10\nreps = 2\nseed = 11\nsigma = 0.3\n"
            "methods = oracle\ngrid_size = 8\n"
            f"report = {tmp_path/'rep.csv'}\nraw = {tmp_path/'raw.csv'}\n")
    cfg.write_text(body)
    assert main(["study", "--config", str(cfg)]) == 0
    assert main(["study", "--config", str(cfg), "--threads", "3"]) == 0
    cfg.write_text(body + "threads = 2\n")
    assert main(["study", "--config", str(cfg)]) == 0
    assert main(["study", "--config", str(cfg), "--threads", "1"]) == 0
    # None: run_study uses all cores
    assert seen == [None, 3, 2, 1]


def test_study_nonconvergence_exits_2(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "n = 24\np = 10\nreps = 1\nseed = 11\nsigma = 0.3\n"
        "methods = lasso, oracle\ngrid_size = 8\nmax_iter = 1\n"
        f"report = {tmp_path/'rep.csv'}\nraw = {tmp_path/'raw.csv'}\n"
    )
    assert main(["study", "--config", str(cfg), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "nonconverged fits per method: lasso 1" in err
    assert "oracle" not in err
    assert (tmp_path / "raw.csv").exists()


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


@pytest.mark.parametrize("n, p", [(6, 20), (20, 6), (9, 9)])
def test_audit_phi_max_is_the_top_eigenvalue_of_the_gram(tmp_path, n, p):
    X = np.random.default_rng(n * p).standard_normal((n, p))
    write_csv(tmp_path / "X.csv", X, ",".join(f"x{j}" for j in range(p)))
    out = tmp_path / "audit.csv"
    assert main(["audit", str(tmp_path / "X.csv"), "--s", "2", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    phi_max = float(next(r[1] for r in rows if r[0] == "phi_max"))
    assert phi_max == pytest.approx(np.linalg.eigvalsh(X.T @ X / n)[-1], rel=1e-12, abs=0.0)
