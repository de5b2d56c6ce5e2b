#!/usr/bin/env python3
"""Build every named construction of merohecke.meroforms and report its cost.

    python3 bench/constructions.py [--precisions 100,300,500] [--reps 3]

For each construction and precision P, from a cleared memo (as a one-shot
`merohecke expand` does), prints the best build time over --reps builds,
the number of LaurentSeries.mul calls one build makes, and the widest
coefficient, in bits, of the one numerator and the one denominator the
construction compiles to (at working precision P + 16, the first pad
build_expression tries).  Run it from the root of a checkout.
"""

import argparse
import ast
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from merohecke import forms, meroforms  # noqa: E402
from merohecke.qseries import LaurentSeries  # noqa: E402


def coeff_bits(series):
    if series is None:
        return 0
    return max((c.bit_length() if type(c) is int
                else c.numerator.bit_length() + c.denominator.bit_length())
               for c in series.coeffs)


def build_cost(name, precision, reps):
    """(best seconds, mul calls) of meroforms.build from a cleared memo."""
    best = float("inf")
    calls = []
    mul = LaurentSeries.mul

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    for rep in range(reps):
        forms.clear_cache()
        if rep == 0:
            LaurentSeries.mul = counted
        try:
            t0 = time.perf_counter()
            meroforms.build(name, precision)
            best = min(best, time.perf_counter() - t0)
        finally:
            LaurentSeries.mul = mul
    return best, len(calls)


def fraction_bits(name, precision):
    """Widest coefficient bits of the numerator and denominator."""
    forms.clear_cache()
    tree = ast.parse(meroforms.CONSTRUCTIONS[name].replace("^", "**"), mode="eval")
    compiler = meroforms._Compiler(precision + 16)
    num, den = compiler.fraction(compiler.eval(tree))
    return coeff_bits(num), coeff_bits(den)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--precisions", default="100,300,500")
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args()
    precisions = [int(x) for x in args.precisions.split(",")]
    print("%-9s %5s %10s %5s %9s %9s" % ("form", "P", "build_ms", "muls", "num_bits", "den_bits"))
    for name in sorted(meroforms.CONSTRUCTIONS):
        for precision in precisions:
            seconds, muls = build_cost(name, precision, args.reps)
            nb, db = fraction_bits(name, precision)
            print("%-9s %5d %10.1f %5d %9d %9d" % (name, precision, 1e3 * seconds, muls, nb, db))


if __name__ == "__main__":
    main()
