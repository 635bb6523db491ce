"""The benchmark harness's self-test, run from the repository root.

perfbench/selftest.py wraps named functions of every package layer; a
renamed or re-imported function breaks it, so it runs with the unit suite.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
