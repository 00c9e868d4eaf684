"""The benchmark's own self-test, run as part of the suite.

``perfbench/`` wraps package names (the T_0 builder, the attach helper,
the commit steps, ``RootedTree.copy`` and ``stats``) by module attribute.
Renaming or bypassing one of them silences a wrapper; this test makes
that fail here instead of only in a later traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("all checks passed")
