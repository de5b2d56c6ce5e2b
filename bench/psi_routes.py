#!/usr/bin/env python3
"""Time both routes of merohecke.numeval.psi_truncated and check them
against an independent re-summation.

    python3 bench/psi_routes.py [--bits 53,80,200,512] [--bounds 2,4,8,16] [--reps 3]
                                [--skip-oracle]

For each bits and bound, prints the summands per call, the best-of-reps
time of psi_truncated summed over three fixed cases (center, point, k,
ell), and the largest difference over those cases from
perfbench/oracle.psi_reference, a term-by-term mpmath re-summation at
bits + 64: relative to the value, and as a share of the oracle's allowance
2^-bits * sum |summands|.  At bits 53 (the binary64 route, which computes
each pair of rows (c, d) and (-c, -d) once) it also prints the best time of
the same sum with every row computed, unshared_s, by the reference loop of
tests/test_numeval.py, asserts that both give the same complex values, and
prints peak_mib, the largest tracemalloc peak of one psi_truncated call:
the stack of stored rows while rows are shared (numeval._SHARE_MAX_BOUND).
There the share of the allowance may pass 1, since binary64 rounds each
operation of a summand to 2^-53.  --skip-oracle leaves out the
re-summation, which takes minutes per case from bound 50 up.  Run it from
the root of a checkout.
"""

import argparse
import math
import os
import sys
import time
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import mpmath  # noqa: E402

import oracle  # noqa: E402
from merohecke.numeval import HPoint, PoincareSeed, psi_truncated  # noqa: E402
from test_numeval import _psi_binary64_unshared  # noqa: E402

# (k, ell, center, point): the normalization case, a pole at rho, and a
# kernel without a pole at a generic center
CASES = ((3, -1, ("0", "1"), ("0", "2")),
         (4, -1, ("-0.5", "0.8660254037844386"), ("-0.21", "1.37")),
         (2, 2, ("-0.31", "1.17"), ("0.2", "1.3")))


def summands(bound):
    pairs = sum(1 for c in range(-bound, bound + 1) for d in range(-bound, bound + 1)
                if math.gcd(c, d) == 1)
    return pairs * (2 * bound + 1)


def run_cases(bits, bound, cases=CASES):
    return [psi_truncated(PoincareSeed(k, ell, HPoint(*center)), HPoint(*z), bound, bits).value
            for k, ell, center, z in cases]


def _pair(coords):
    w = HPoint(*coords).to_complex()
    return w.real, w.imag


def run_unshared(bound):
    return [_psi_binary64_unshared(k, ell, _pair(center), _pair(z), bound)
            for k, ell, center, z in CASES]


def peak_mib(bits, bound):
    peak = 0
    for case in CASES:
        tracemalloc.start()
        run_cases(bits, bound, (case,))
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return peak / 2 ** 20


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
    print("%5s %5s %9s %9s %10s %8s %10s %10s" % ("bits", "bound", "summands", "time_s",
                                                    "unshared_s", "peak_mib", "rel_err",
                                                    "allowance"))
    for bits in [int(x) for x in args.bits.split(",")]:
        for bound in [int(x) for x in args.bounds.split(",")]:
            best, values = best_of(args.reps, run_cases, bits, bound)
            base = peak = "-"
            if bits <= 53:
                t_base, want = best_of(args.reps, run_unshared, bound)
                assert values == want, (bound, values, want)
                base = "%.3f" % t_base
                peak = "%.1f" % peak_mib(bits, bound)
            rel = share = "-"
            if not args.skip_oracle:
                rel = share = 0.0
                for (k, ell, center, z), value in zip(CASES, values):
                    ref, scale = oracle.psi_reference(k, ell, center, z, bound, bits)
                    with mpmath.workprec(bits + oracle.EXTRA_BITS):
                        err = abs(value - ref)
                        rel = max(rel, float(err / abs(ref)))
                        share = max(share, float(err / (mpmath.mpf(2) ** -bits * scale)))
                rel, share = "%.2e" % rel, "%.2e" % share
            print("%5d %5d %9d %9.3f %10s %8s %10s %10s" % (bits, bound, summands(bound), best,
                                                          base, peak, rel, share), flush=True)


if __name__ == "__main__":
    main()
