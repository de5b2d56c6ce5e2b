#!/usr/bin/env python3
"""Time merohecke.numeval.psi_truncated above 53 bits and check it against
an independent re-summation.

    python3 bench/psi_routes.py [--bits 80,200,512] [--bounds 2,4,8,16] [--reps 3]

For each bits and bound, prints the summands per call, the best-of-reps
time of psi_truncated summed over three fixed cases (center, point, k,
ell), and the largest difference over those cases from
perfbench/oracle.psi_reference, a term-by-term mpmath re-summation at
bits + 64: relative to the value, and as a share of the oracle's allowance
2^-bits * sum |summands|.  Run it from the root of a checkout.
"""

import argparse
import math
import os
import sys
import time

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


def summands(bound):
    pairs = sum(1 for c in range(-bound, bound + 1) for d in range(-bound, bound + 1)
                if math.gcd(c, d) == 1)
    return pairs * (2 * bound + 1)


def run_cases(bits, bound):
    return [psi_truncated(PoincareSeed(k, ell, HPoint(*center)), HPoint(*z), bound, bits).value
            for k, ell, center, z in CASES]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--bits", default="80,200,512")
    p.add_argument("--bounds", default="2,4,8,16")
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args()
    print("%5s %5s %9s %9s %10s %10s" % ("bits", "bound", "summands", "time_s", "rel_err",
                                          "allowance"))
    for bits in [int(x) for x in args.bits.split(",")]:
        for bound in [int(x) for x in args.bounds.split(",")]:
            best = float("inf")
            for _ in range(args.reps):
                t0 = time.perf_counter()
                values = run_cases(bits, bound)
                best = min(best, time.perf_counter() - t0)
            rel = share = 0.0
            for (k, ell, center, z), value in zip(CASES, values):
                ref, scale = oracle.psi_reference(k, ell, center, z, bound, bits)
                with mpmath.workprec(bits + oracle.EXTRA_BITS):
                    err = abs(value - ref)
                    rel = max(rel, float(err / abs(ref)))
                    share = max(share, float(err / (mpmath.mpf(2) ** -bits * scale)))
            print("%5d %5d %9d %9.3f %10.2e %10.2e" % (bits, bound, summands(bound), best, rel,
                                                      share), flush=True)


if __name__ == "__main__":
    main()
