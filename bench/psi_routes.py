#!/usr/bin/env python3
"""Time both routes of merohecke.numeval.psi_truncated and check them
against an independent re-summation.

    python3 bench/psi_routes.py [--bits 53,80,200,512] [--bounds 2,4,8,16] [--reps 3]
                                [--skip-oracle]

For each bits and bound, prints the rows (c, d) computed per call (those
with c < 0, and (0, -1): each mirrors the row (-c, -d), and the total is
doubled) and the summands they take, the best-of-reps time of
psi_truncated summed over three fixed cases (center, point, k, ell), and
the time of perfbench/oracle.psi_reference over the same cases, a
term-by-term re-summation of every row at bits + 64.  It also prints the
largest difference from the oracle over those cases: relative to the
value, and as a share of the oracle's allowance 2^-bits * sum |summands|.
At bits 53 (the binary64 route) that share may pass 1, since binary64
rounds each operation of a summand to 2^-53; and the oracle re-sums the
binary64 route's old summand formula in binary64, so its error there
favours that formula.  At bits <= 53 the last column is therefore the
largest error against the same truncated sum at the binary64 values of the
center and point, re-summed in mpmath at 160 bits, in units of
2^-53 * sum |summands|.  --skip-oracle leaves out both re-summations,
which take minutes per case from bound 50 up.  A second table times the
binary64 route (bits 53) on one case per loop shape of its kernel
(ell = 0, 1, -1, -k, and -2 with 2k + 2 ell > 0, at k = 3 about a generic
center) at each bound, best of reps, in ns per summand.  Run it from the
root of a checkout.
"""

import argparse
import math
import os
import sys
import time
from decimal import Decimal

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import mpmath  # noqa: E402

import oracle  # noqa: E402
from merohecke.numeval import HPoint, PoincareSeed, psi_truncated  # noqa: E402

# (k, ell, center, point): the normalization case, a pole at rho, and a
# kernel without a pole at a generic center
CASES = ((3, -1, ("0", "1"), ("0", "2")),
         (4, -1, ("-0.5", "0.8660254037844386"), ("-0.21", "1.37")),
         (2, 2, ("-0.31", "1.17"), ("0.2", "1.3")))


# one case per loop shape of the binary64 kernel: (shape, k, ell)
SHAPES = (("ell=0", 3, 0), ("ell=1", 3, 1), ("ell=-1", 3, -1), ("ell=-k", 3, -3),
          ("ell=-2,n>0", 3, -2))
SHAPE_CENTER, SHAPE_POINT = ("-0.31", "1.17"), ("0.2", "1.3")


def rows(bound):
    return 1 + sum(1 for c in range(-bound, 0) for d in range(-bound, bound + 1)
                   if math.gcd(c, d) == 1)


def run_cases(bits, bound):
    return [psi_truncated(PoincareSeed(k, ell, HPoint(*center)), HPoint(*z), bound, bits).value
            for k, ell, center, z in CASES]


def run_oracle(bits, bound):
    return [oracle.psi_reference(k, ell, center, z, bound, bits) for k, ell, center, z in CASES]


def binary64_units(values, bound):
    """The largest error of the binary64 values over CASES against the same
    truncated sums at the binary64 center and point, re-summed by
    psi_reference at 96 + 64 = 160 bits, in units of
    2^-53 * sum |summands|.  The decimal expansion of a binary64 coordinate
    is exact, so mpmath reads the binary64 value itself."""
    def exact(xy):
        return tuple(str(Decimal(float(v))) for v in xy)
    worst = 0.0
    for value, (k, ell, center, z) in zip(values, CASES):
        ref, scale = oracle.psi_reference(k, ell, exact(center), exact(z), bound, 96)
        with mpmath.workprec(160):
            worst = max(worst, float(abs(value - ref) / (mpmath.mpf(2) ** -53 * scale)))
    return worst


def best_of(reps, fn, *args):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--bits", default="53,80,200,512")
    p.add_argument("--bounds", default="2,4,8,16")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--skip-oracle", action="store_true")
    args = p.parse_args()
    print("%5s %5s %6s %9s %9s %9s %10s %10s %9s" % ("bits", "bound", "rows", "summands", "time_s",
                                                     "oracle_s", "rel_err", "allowance",
                                                     "units160"))
    for bits in [int(x) for x in args.bits.split(",")]:
        for bound in [int(x) for x in args.bounds.split(",")]:
            best, values = best_of(args.reps, run_cases, bits, bound)
            t_oracle = rel = share = units = "-"
            if not args.skip_oracle and bits <= 53:
                units = "%.3f" % binary64_units(values, bound)
            if not args.skip_oracle:
                t, refs = best_of(1, run_oracle, bits, bound)
                t_oracle, rel, share = "%.3f" % t, 0.0, 0.0
                for value, (ref, scale) in zip(values, refs):
                    with mpmath.workprec(bits + oracle.EXTRA_BITS):
                        err = abs(value - ref)
                        rel = max(rel, float(err / abs(ref)))
                        share = max(share, float(err / (mpmath.mpf(2) ** -bits * scale)))
                rel, share = "%.2e" % rel, "%.2e" % share
            print("%5d %5d %6d %9d %9.3f %9s %10s %10s %9s"
                  % (bits, bound, rows(bound), rows(bound) * (2 * bound + 1), best, t_oracle,
                     rel, share, units), flush=True)
    print("\n%-11s %5s %9s %9s %12s" % ("shape", "bound", "summands", "time_s", "ns/summand"))
    for shape, k, ell in SHAPES:
        seed = PoincareSeed(k, ell, HPoint(*SHAPE_CENTER))
        for bound in [int(x) for x in args.bounds.split(",")]:
            best, _ = best_of(args.reps, psi_truncated, seed, HPoint(*SHAPE_POINT), bound, 53)
            summands = rows(bound) * (2 * bound + 1)
            print("%-11s %5d %9d %9.4f %12.1f" % (shape, bound, summands, best,
                                                  1e9 * best / summands), flush=True)


if __name__ == "__main__":
    main()
