"""The benchmark harness's self-test and a probe of its tracer, run from the
repository root.

perfbench/selftest.py wraps named functions of every package layer; a
renamed or re-imported function breaks it, so it runs with the unit suite.
Both run in a subprocess, so no tracing wrapper can leak into other tests.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


TRACER_PROBE = """
import json, sys, tempfile
sys.path[:0] = ["perfbench", "src"]
import tracing
from l1concave import solver

with tempfile.TemporaryDirectory() as tmp:
    tracer = tracing.Tracer(tmp)
    tracer.install()
    wrapped = tracing.wrapped_attributes()
    tracer.remove()
print(json.dumps({"solver_private": sorted(n for n in vars(solver) if n.startswith("_")),
                  "wrapped": wrapped, "left": tracing.wrapped_attributes()}))
"""


def test_tracer_wraps_make_prox_but_no_private_solver_name():
    # the tracer counts fits and prox calls through scalar_prox.make_prox and
    # must leave the private engine alone; the names are checked to exist, so
    # a rename cannot make the check pass without looking
    done = subprocess.run([sys.executable, "-c", TRACER_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    assert {"_cd_path", "_certificate", "_design"} <= set(probe["solver_private"])
    assert not [n for n in probe["wrapped"] if n.startswith("l1concave.solver._")]
    assert "l1concave.scalar_prox.make_prox" in probe["wrapped"]
    assert probe["left"] == []
