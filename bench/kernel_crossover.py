#!/usr/bin/env python3
"""Time the two integer multiplication paths of merohecke.qseries.

    python3 bench/kernel_crossover.py [--lengths 8,16,...] [--bits 8,64,...]

For random signed coefficient lists of each kept length n and coefficient
size, prints the schoolbook time over the Kronecker time (above 1:
Kronecker is faster) and the path _convolve chooses (K or s).  This is the
microbenchmark behind _KRON_MIN_LEN and _KRON_SLOT_BITS_PER_COEFF; run it
from the root of a checkout.
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from merohecke import qseries  # noqa: E402


def best_time(fn, *args, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def chosen_path(x, y, n):
    """"K" when _convolve(x, y, n) takes the Kronecker path, else "s"."""
    taken = []
    kron = qseries._conv_kron
    qseries._conv_kron = lambda *args: taken.append(args) or kron(*args)
    try:
        qseries._convolve(x, y, n)
    finally:
        qseries._conv_kron = kron
    return "K" if taken else "s"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--lengths", default="8,12,16,24,32,48,64,96,128,256,512")
    p.add_argument("--bits", default="8,32,64,128,256,512,1024,2048")
    p.add_argument("--seed", type=int, default=5)
    args = p.parse_args()
    lengths = [int(x) for x in args.lengths.split(",")]
    bits = [int(x) for x in args.bits.split(",")]
    rng = random.Random(args.seed)
    print("schoolbook time / Kronecker time, and the path _convolve takes")
    print("%6s " % "n" + " ".join("%9s" % ("%d-bit" % b) for b in bits))
    for n in lengths:
        cells = []
        for b in bits:
            x = [rng.randint(-2 ** b, 2 ** b) for _ in range(n)]
            y = [rng.randint(-2 ** b, 2 ** b) for _ in range(n)]
            school = best_time(qseries._conv_school, x, y, n)
            kron = best_time(qseries._conv_kron, x, y, n, qseries._slot_bits(x, y, n))
            cells.append("%7.2f %s" % (school / kron, chosen_path(x, y, n)))
        print("%6d " % n + " ".join(cells), flush=True)


if __name__ == "__main__":
    main()
