#!/usr/bin/env python3
"""Time the leaf builds of merohecke.forms against the routes they replaced.

    python3 bench/leaves.py [--precisions 116,516,1416] [--weights 4,6,12] [--reps 5]

For each precision P prints the best time of:
  * E_k by the divisor sieve (forms.eisenstein, memo cleared) against a
    trial-division sigma per n times the Fraction -2k/B_k;
  * delta as q * (Jacobi's eta^3)^8 (forms.delta) against q times the
    pentagonal-number Euler product to the 24th power;
  * the square of delta's coefficient tuple by _convolve(a, a, n), which
    packs the operand once, against _convolve(a, list(a), n), the product
    of two distinct operands.
Both powers of delta go through the current _convolve, so the delta line
measures the change of route and the square line the one-pack square.  Each
pair is asserted to give equal output, coefficient type included.  Run it
from the root of a checkout.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from merohecke import forms, qseries  # noqa: E402
from merohecke.qseries import LaurentSeries, as_coeff  # noqa: E402


def best_time(fn, *args, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def eisenstein_new(weight, p):
    forms.clear_cache()
    return forms.eisenstein(weight, p).series


def eisenstein_old(weight, p):
    factor = Fraction(-2 * weight) / forms.bernoulli(weight)
    coeffs = [1] + [as_coeff(factor * forms.sigma(weight - 1, n)) for n in range(1, p)]
    return LaurentSeries(0, coeffs, p)


def delta_new(p):
    forms.clear_cache()
    return forms.delta(p).series


def delta_old(p):
    n = p - 1
    euler = [0] * n
    for k in range(-n, n + 1):
        g = k * (3 * k - 1) // 2
        if 0 <= g < n:
            euler[g] += (-1) ** (k % 2)
    return (LaurentSeries(0, euler, n) ** 24).shift(1)


def typed(series):
    return (series.val, series.prec, [(type(c), c) for c in series.coeffs])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--precisions", default="116,516,1416")
    p.add_argument("--weights", default="4,6,12")
    p.add_argument("--reps", type=int, default=5)
    args = p.parse_args()
    precisions = [int(x) for x in args.precisions.split(",")]
    weights = [int(x) for x in args.weights.split(",")]
    print("best of %d, ms: old route / new route (ratio)" % args.reps)
    for prec in precisions:
        cells = []
        for k in weights:
            t_new, new = best_time(eisenstein_new, k, prec, reps=args.reps)
            t_old, old = best_time(eisenstein_old, k, prec, reps=args.reps)
            assert typed(new) == typed(old), ("E", k, prec)
            cells.append("E%d %.2f/%.2f (%.1fx)" % (k, 1e3 * t_old, 1e3 * t_new, t_old / t_new))
        t_new, new = best_time(delta_new, prec, reps=args.reps)
        t_old, old = best_time(delta_old, prec, reps=args.reps)
        assert typed(new) == typed(old), ("delta", prec)
        cells.append("delta %.2f/%.2f (%.1fx)" % (1e3 * t_old, 1e3 * t_new, t_old / t_new))
        a = new.coeffs
        n = len(a)
        t_sq, sq = best_time(qseries._convolve, a, a, n, reps=args.reps)
        t_pr, pr = best_time(qseries._convolve, a, list(a), n, reps=args.reps)
        assert sq == pr, ("square", prec)
        cells.append("square %.2f/%.2f (%.1fx)" % (1e3 * t_pr, 1e3 * t_sq, t_pr / t_sq))
        print("P=%-5d " % prec + "  ".join(cells), flush=True)


if __name__ == "__main__":
    main()
