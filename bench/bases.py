#!/usr/bin/env python3
"""Cost and size of the echelon bases the forms memo holds on a session.

    python3 bench/bases.py [--deck perfbench/data/exact-session.json] [--reps 3]

Runs the quotient, solve-pp and verify command lines of the deck once, in
this process, from a cleared memo, so the memo ends up holding every echelon
basis ("basis", weight, e) of delta^e * M_(weight-12e) that workload asks
for, each at the largest precision asked for: e = 0 is the holomorphic
space (and the slice with max_pole 0), e = 1 the cuspidal space and
e = -max_pole the pole-bounded slice.  Then, for each of those entries,
prints the best time over --reps of a request at that precision with the
entry removed (a miss: only the basis entry is popped, so the build runs on
the warm E4, E6 and delta entries and the E4^a and delta^n power entries)
and with it present (a hit: the truncated copy), the dimension, the
coefficient bits stored and the bytes of the stored coefficient objects and
tuples.  The last lines give the totals, and the same totals for the power
entries the builds share.  Run it from the root of a checkout.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from merohecke import cli, forms, whbasis  # noqa: E402


def request(key, precision):
    _, weight, e = key
    if e >= 0:
        return forms.basis(weight, forms.CUSPIDAL if e else forms.HOLOMORPHIC, precision)
    return whbasis.wh_slice_basis(weight, -e, precision)


def best_time(key, precision, reps, miss):
    best = float("inf")
    for _ in range(reps):
        if miss:
            forms._cache.pop(key, None)
        t0 = time.perf_counter()
        request(key, precision)
        best = min(best, time.perf_counter() - t0)
    return best


def coeff_bits(c):
    if type(c) is int:
        return c.bit_length()
    return c.numerator.bit_length() + c.denominator.bit_length()


def stored_size(series):
    """(coefficient bits, bytes of the coefficient objects and their tuples)."""
    bits = size = 0
    for s in series:
        bits += sum(map(coeff_bits, s.coeffs))
        size += sys.getsizeof(s.coeffs) + sum(map(sys.getsizeof, s.coeffs))
    return bits, size


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--deck", default=os.path.join(ROOT, "perfbench", "data", "exact-session.json"))
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args()
    with open(args.deck) as fh:
        jobs = json.load(fh)["jobs"]
    forms.clear_cache()
    sink = io.StringIO()
    for job in jobs:
        if job["argv"][0] in ("quotient", "solve-pp", "verify"):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(job["argv"])
            sink.seek(0)
            sink.truncate()
    # M and S by weight, then the slices by weight and max_pole
    entries = sorted(((key, stored[0]) for key, stored in forms._cache.items()
                      if key[0] == "basis"),
                     key=lambda entry: (entry[0][2] < 0, entry[0][1], abs(entry[0][2])))
    print("%-5s %6s %5s %5s %4s %9s %9s %9s %9s"
          % ("entry", "weight", "space", "P", "dim", "miss_ms", "hit_ms", "bits", "bytes"))
    total_bits = total_bytes = 0
    for key, precision in entries:
        miss = best_time(key, precision, args.reps, miss=True)
        hit = best_time(key, precision, args.reps, miss=False)
        fb = request(key, precision)
        bits, size = stored_size(f.series for f in fb)
        total_bits += bits
        total_bytes += size
        entry = "basis" if key[2] >= 0 else "wh"
        space = fb.kind if key[2] >= 0 else "a=%d" % -key[2]
        print("%-5s %6d %5s %5d %4d %9.2f %9.3f %9d %9d"
              % (entry, key[1], space, precision, len(fb), 1e3 * miss, 1e3 * hit, bits, size))
    print("entries %d (%d basis, %d wh)" % (len(entries),
                                            sum(k[2] >= 0 for k, _ in entries),
                                            sum(k[2] < 0 for k, _ in entries)))
    print("coefficient bits %d, coefficient and tuple bytes %d (%.2f MB)"
          % (total_bits, total_bytes, total_bytes / 2 ** 20))
    powers = [stored[1] for key, stored in forms._cache.items()
              if key[0] in ("E4 power", "delta power")]
    bits, size = stored_size(powers)
    print("power entries %d: coefficient bits %d, coefficient and tuple bytes %d (%.2f MB)"
          % (len(powers), bits, size, size / 2 ** 20))


if __name__ == "__main__":
    main()
