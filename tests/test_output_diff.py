"""tools/output_diff.py on small synthetic standing-check dumps."""

import copy
import math
import os
import sys

import numpy as np

from l1concave.penalty import PenaltySpec
from l1concave.simulate import METRIC_NAMES
from l1concave.solver import RegressionProblem, default_lambda_grid, fit_path, standardize

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import output_diff  # noqa: E402
import standing_check  # noqa: E402


def path_records(kind: str) -> list[list]:
    """The fit records of one small real path of penalty kind."""
    rng = np.random.default_rng(0)
    X, _ = standardize(rng.standard_normal((20, 6)))
    y = X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.standard_normal(20)
    path = fit_path(RegressionProblem(X, y), PenaltySpec(kind, 0.0),
                    default_lambda_grid(X, y, 4, 0.1))
    return [standing_check.fit_record(fit) for fit in path.fits]


def synthetic_records() -> dict:
    """Records shaped like a standing-check dump: one path of real fits, two
    `cli path` runs and one study row per method (with a NaN cell)."""
    runs = [{"tag": f"design {d} hard", "exit": 0, "stdout": "path of 2 fits\n",
             "csv": "lambda,rss,selected\n0.5,1.25,1\n0.25,1.0,0\n"} for d in range(2)]
    rows = [{"replicate": 0, "method": m, **{k: 0.5 for k in METRIC_NAMES}, "lam": math.nan}
            for m in ("lasso", "oracle")]
    return {"study": {"1": repr(rows)}, "cli": {"cli path sweep": runs},
            "fits": [path_records("hard")]}


def dumped(tmp_path, name, records):
    standing_check.write_dump(str(tmp_path / name), records)
    return str(tmp_path / name)


def test_identical_dumps_report_no_differences(tmp_path, capsys):
    records = synthetic_records()
    a, b = dumped(tmp_path, "a", records), dumped(tmp_path, "b", records)
    assert output_diff.main([a, b]) == 0
    assert capsys.readouterr().out.endswith("summary:\n  no differences\n")


def test_a_sign_an_exit_code_and_a_field_are_all_that_is_reported(tmp_path, capsys):
    a = synthetic_records()
    b = copy.deepcopy(a)
    fits = b["fits"][0]
    betas = [standing_check.field_value(*fit[0][1:]) for fit in fits]  # field 0 is beta
    k = next(i for i, beta in enumerate(betas) if np.any(beta))
    beta = betas[k].copy()
    j = int(np.flatnonzero(beta)[0])
    beta[j] = -beta[j]
    fits[k][0] = standing_check.field_record("beta", beta)
    for fit in fits:
        fit.append(standing_check.field_record("extra", 1.0))
    b["cli"]["cli path sweep"][1]["exit"] = 2

    assert output_diff.main([dumped(tmp_path, "a", a), dumped(tmp_path, "b", b)]) == 1
    out = capsys.readouterr().out
    assert out.split("summary:\n")[1].splitlines() == [
        "  fields added: extra",
        f"  fits: beta differs in 1 of {len(fits)}",
        "  fits: 1 coefficients flip sign",
        "  cli path sweep: exit code changed in 1 of 2 runs",
    ]
    assert "    'design 1 hard': exit 0 -> 2" in out.splitlines()


def test_changed_stdout_lines_are_grouped_by_their_first_word(tmp_path, capsys):
    a = synthetic_records()
    for run in a["cli"]["cli path sweep"]:
        run["stdout"] = "penalty hard lam=0.5\nobjective 0.25\nconverged 1 iterations 3\n"
    b = copy.deepcopy(a)
    runs = b["cli"]["cli path sweep"]
    runs[0]["stdout"] = "penalty hard lam=0.5\nobjective 0.2500000001\nconverged 1 iterations 3\n"
    runs[1]["stdout"] = "penalty hard lam=0.5\nobjective 0.3\nconverged 0 iterations 3\nextra\n"

    assert output_diff.main([dumped(tmp_path, "a", a), dumped(tmp_path, "b", b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[out.index("  exit code changed in 0 runs, standard output in 2") + 1:][:3] == [
        "  stdout lines 'converged': 1 changed, max rel 1",
        "  stdout lines 'extra': 1 changed, max rel inf",
        "  stdout lines 'objective': 2 changed, max rel 0.2",
    ]


def test_the_fit_table_is_grouped_by_penalty_kind(tmp_path, capsys):
    a = synthetic_records()
    a["fits"].append(path_records("sica"))
    b = copy.deepcopy(a)
    sica = b["fits"][1]
    objective = standing_check.field_value(*sica[2][2][1:])  # fit 2, field 2 is objective
    sica[2][2] = standing_check.field_record("objective", objective * (1.0 + 2.0 ** -52))

    assert output_diff.main([dumped(tmp_path, "a", a), dumped(tmp_path, "b", b)]) == 1
    out = capsys.readouterr().out.splitlines()
    hard, n = len(a["fits"][0]), len(sica)
    assert f"  hard   no field differs in its {hard} fits" in out
    rows = [line.split() for line in out if line.startswith("  sica ")]
    assert [row[:2] for row in rows] == [["sica", name] for name, _, _ in sica[0]]
    assert [row[2:5] for row in rows if row[1] != "objective"] == [["0", "of", str(n)]] * (
        len(rows) - 1)
    assert next(row for row in rows if row[1] == "objective")[2:5] == ["1", "of", str(n)]
    assert out[out.index("summary:") + 1:] == [f"  fits: objective differs in 1 of {hard + n}"]
