"""Argument checks of the scripts under bench/."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.mark.parametrize("reps", ["3", "1", "0"])
def test_ab_refuses_odd_or_too_few_reps(reps):
    # an odd REPS lets one side run first more often, and 0 leaves no
    # median: refused with the usage text before any tree is loaded
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "ab.py"), ".", ".", "exact-session", "1",
         reps], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "bench/ab.py TREE_A TREE_B WORKLOAD SEED REPS" in proc.stderr
    assert proc.stdout == ""
