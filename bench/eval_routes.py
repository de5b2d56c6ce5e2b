#!/usr/bin/env python3
"""Time the mpc loop and the fixed-point Horner route of
merohecke.numeval.eval_series against each other.

    python3 bench/eval_routes.py [--names E4,delta,j,g7,f6i,G]
                                 [--bits 64,128,256,512] [--precs 100,200,400]
                                 [--reps 3]

For each form, bits and precision P, prints the best-of-reps time of one
evaluation at each of the form's points, summed over the points: old_s for
the term-by-term mpc loop kept in tests/test_numeval.py (the route
eval_series took before it summed in fixed point) and new_s for
eval_series, with their ratio, and the largest relative difference of the
two values over the points.  The old loop errs by up to a few units of
2^-(bits + 30) per term, times the terms' cancellation, so rel_diff is the
old loop's error more than the new route's.  The points lie in the strip of
the benchmark's numeric decks: every form at heights 1.37, 1.6 and 2.2,
above the pole of G at sqrt(7)/2 and that of f6i at 1; E4, j and g7 also at
0.62, where the ratio test refuses delta.  Run it from the root of a
checkout.
"""

import argparse
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import mpmath  # noqa: E402

from merohecke import cli  # noqa: E402
from merohecke.numeval import HPoint, eval_series  # noqa: E402
from test_numeval import _eval_series_mpc  # noqa: E402

HIGH = (HPoint("-0.21", "1.37"), HPoint("0.37", "1.6"), HPoint("0.05", "2.2"))
LOW = (HPoint("0.31", "0.62"),)
POINTS = {"E4": LOW + HIGH, "delta": HIGH, "j": LOW + HIGH, "g7": LOW + HIGH,
          "f6i": HIGH, "G": HIGH}


def best_of(reps, fn, *args):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def run(route, series, points, bits):
    return [route(series, z, bits).value for z in points]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--names", default="E4,delta,j,g7,f6i,G")
    p.add_argument("--bits", default="64,128,256,512")
    p.add_argument("--precs", default="100,200,400")
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args()
    print("%6s %5s %5s %7s %9s %9s %7s %10s" % ("form", "bits", "P", "points", "old_s",
                                                  "new_s", "speedup", "rel_diff"))
    for name in args.names.split(","):
        points = POINTS[name]
        for prec in [int(x) for x in args.precs.split(",")]:
            series = cli._build_form(name, prec).series
            for bits in [int(x) for x in args.bits.split(",")]:
                t_old, old = best_of(args.reps, run, _eval_series_mpc, series, points, bits)
                t_new, new = best_of(args.reps, run, eval_series, series, points, bits)
                with mpmath.workprec(bits + 30):
                    rel = max(float(abs(a - b) / abs(a)) for a, b in zip(old, new))
                print("%6s %5d %5d %7d %9.4f %9.4f %7.1f %10.2e" % (
                    name, bits, prec, len(points), t_old, t_new, t_old / t_new, rel), flush=True)


if __name__ == "__main__":
    main()
