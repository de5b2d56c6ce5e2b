#!/usr/bin/env python3
"""Fresh-process A/B timing of one merohecke command line on two trees.

    python3 bench/fresh.py TREE_A TREE_B PAIRS -- ARGV...

Runs `python -m merohecke.cli ARGV` PAIRS times on each tree, each run in
a new process with PYTHONPATH=TREE/src and MEROHECKE_CACHE_DIR unset, so
that every run pays start-up and builds its series afresh, as a user's
first command does.  This times what bench/ab.py cannot: a command line
that no perfbench deck holds (a CLI default, say) and the start-up that
ab.py's in-process runs share.  Within a pair A runs first, or B in odd
pairs, so both sides see the same drift of a shared host.  Prints each
side's median, min and max seconds, each pair's B/A, the number of pairs
in which B was faster, and whether every run gave the exit code, stdout
and stderr of the first.

PAIRS must be even and at least 2, the REPS rule of bench/ab.py: a run
that follows another can be faster than one that does not (ab.py measured
B/A 0.965 of a tree against itself at an odd count, 1.000 at an even one),
so with an odd PAIRS the side that runs first once more reads slower, and
a median needs at least one run per side.

Exits 0 when every run gave the same exit code, stdout and stderr, 1 when
any differed, and 2 on a missing tree, PAIRS, `--` or ARGV, or an odd or
zero PAIRS, refused before any run, so a byte-identity gate can be
scripted on the exit code.
"""

import os
import statistics
import subprocess
import sys
import time


def run_once(tree, argv):
    """(exit code, stdout, stderr) and wall seconds of one fresh run on tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    env.pop("MEROHECKE_CACHE_DIR", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "merohecke.cli"] + argv,
                          env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    return (proc.returncode, proc.stdout, proc.stderr), seconds


def main(argv):
    cut = argv.index("--") if "--" in argv else len(argv)
    head, command = argv[:cut], argv[cut + 1:]
    if len(head) != 3 or not command or not head[2].isdigit() \
            or int(head[2]) < 2 or int(head[2]) % 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees, pairs = head[:2], int(head[2])
    times = [[], []]
    first = None
    same = True
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            output, seconds = run_once(trees[side], command)
            times[side].append(seconds)
            first = output if first is None else first
            same = same and output == first

    print("A = %s  B = %s  %d pairs  argv: %s" % (trees[0], trees[1], pairs, " ".join(command)))
    for tag, t in zip("AB", times):
        print("%s  median %.4f s  min %.4f s  max %.4f s"
              % (tag, statistics.median(t), min(t), max(t)))
    ratios = [b / a for a, b in zip(*times)]
    print("B/A per pair: %s" % " ".join("%.3f" % r for r in ratios))
    print("B faster in %d of %d pairs" % (sum(r < 1 for r in ratios), pairs))
    print("outputs identical: %s" % ("yes" if same else "no"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
