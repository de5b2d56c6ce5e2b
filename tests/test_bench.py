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


FRESH = os.path.join(ROOT, "bench", "fresh.py")


@pytest.mark.parametrize("args", [
    [".", ".", "3", "--", "expand", "E4"],
    [".", ".", "0", "--", "expand", "E4"],
    [".", ".", "2", "expand", "E4"],
    [".", ".", "2", "--"],
], ids=["odd-pairs", "zero-pairs", "no-separator", "no-argv"])
def test_fresh_refuses_bad_arguments(args):
    # refused with the usage text before any run
    proc = subprocess.run([sys.executable, FRESH] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert "bench/fresh.py TREE_A TREE_B PAIRS -- ARGV..." in proc.stderr
    assert proc.stdout == ""


def test_fresh_same_tree_matches():
    proc = subprocess.run([sys.executable, FRESH, ".", ".", "2", "--", "expand", "E4",
                           "--prec", "5"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "outputs identical: yes" in proc.stdout
    assert "B faster in" in proc.stdout
