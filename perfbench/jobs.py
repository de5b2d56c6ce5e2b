"""Workload decks.

A deck is the fixed list of jobs one run of a workload repeats: the seed
decides which jobs it holds and in what order, and the same seed always
gives the same deck.  A job is a dict with
  argv    the merohecke command line (list of str),
  expect  the expected exit code,
  sha256  digest of the expected stdout, for exact jobs,
  check   for numeric jobs, what the oracle compares (see run.py),
  file    name of a series file the argv refers to, if any,
  repeat  for expand-cold, the job repeats an earlier request of the deck,
  cat     the job's category.

Exact jobs are drawn from the recorded universes in data/ (written by
record.py), which hold every exact job a deck can hold with its expected
exit code, stdout digest and recorded cost.  Numeric jobs are generated
directly from the seed and checked against oracle.py.

Job costs are skewed: `expand G --prec 500` costs about fifty times the
median job.  A deck that drew its jobs at random would hold a different
share of heavy jobs for every seed, and that share alone would move every
timing past its bound.  So decks are stratified: exact jobs one from each
stratum of recorded cost (_strata), numeric parameters through seeded
permutations (_Cycle), and categories in a fixed mix per block of 20.
Every deck then holds nearly the same cost profile; the seed decides which
jobs of each stratum it meets.
"""

import json
import math
import os
import random

WORKLOADS = ("expand-cold", "exact-session", "numeric-eval")
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PHI = (math.sqrt(5) - 1) / 2

# category mix per block of 20 jobs, and blocks per deck
EXPAND_MIX = (("expand", 12), ("hecke", 3), ("repeat", 5))
SESSION_MIX = (("quotient", 7), ("solve-pp", 5), ("verify", 2),
               ("hecke-named", 3), ("hecke-file", 3))
NUMERIC_MIX = (("eval", 10), ("eval-mero", 4), ("psi53", 2), ("psi200", 1),
               ("psi-prop", 1), ("cm", 1), ("eigen", 1))
DECK_BLOCKS = {"expand-cold": 7, "exact-session": 20, "numeric-eval": 20}


def load_universe(workload):
    with open(os.path.join(DATA_DIR, workload + ".json")) as fh:
        return json.load(fh)


class _Cycle:
    """Endless seeded permutations of a list."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.queue = []

    def next(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _strata(rng, entries, n):
    """n recorded jobs, one from each of n equal strata of cost rank, in an
    order in which every prefix holds heavy and light jobs alike.

    Stratum i covers ranks [i L/n, (i+1) L/n) of the L jobs (one rank,
    taken by several strata, when n > L) and gives the job at offset
    frac(u + i phi) inside it.  The picks are then balanced: while swapping one pick for
    another job of its stratum brings their recorded cost closer to the
    mean over all choices, the best such swap is made, so every deck costs
    nearly the same.  Finally the strata are placed at phases
    frac(v + i phi): by the three-gap theorem the heaviest k, for every k,
    lie evenly spaced along the list.  u and v come from the seed."""
    ranked = sorted(entries, key=lambda e: (-e["cost"], e["argv"]))
    size = len(ranked)
    u, v = rng.random(), rng.random()
    bounds = [(int(i * size / n), max(int(i * size / n) + 1, int((i + 1) * size / n)))
              for i in range(n)]
    picks = [a + int((u + i * PHI) % 1.0 * (b - a)) for i, (a, b) in enumerate(bounds)]
    target = sum(sum(e["cost"] for e in ranked[a:b]) / (b - a) for a, b in bounds)
    excess = sum(ranked[r]["cost"] for r in picks) - target
    for _ in range(n):
        gain, i, r = min((abs(excess - ranked[picks[i]]["cost"] + ranked[r]["cost"]), i, r)
                         for i, (a, b) in enumerate(bounds) for r in range(a, b))
        if gain >= abs(excess) - 1e-9:
            break
        excess += ranked[r]["cost"] - ranked[picks[i]]["cost"]
        picks[i] = r
    order = sorted(range(n), key=lambda i: (v + i * PHI) % 1.0)
    return [ranked[picks[i]] for i in order]


def _categories(rng, mix, blocks):
    """Category sequence: `blocks` blocks, each holding `mix` (category ->
    count) in a seeded order."""
    block = [cat for cat, n in mix for _ in range(n)]
    out = []
    for _ in range(blocks):
        rng.shuffle(block)
        out.extend(block)
    return out


def _exact_job(entry):
    job = {"argv": list(entry["argv"]), "expect": entry["exit"], "sha256": entry["sha256"],
           "cat": entry["cat"]}
    if entry.get("file"):
        job["file"] = entry["file"]
    return job


def _exact_deck(rng, universe, mix, blocks):
    """Decks of recorded jobs.  A "repeat" repeats a request made at most
    20 jobs earlier in the deck; which requests are repeated is drawn like
    the fresh jobs, one per stratum of their recorded cost, so that the
    cost of the repeats (cache hits in expand-cold) is as balanced as the
    rest."""
    cats = {}
    for e in universe["jobs"]:
        cats.setdefault(e["cat"], []).append(e)
    fresh_mix = [(cat, n) for cat, n in mix if cat != "repeat"]
    repeats = dict(mix).get("repeat", 0) * blocks
    sequence = _categories(rng, fresh_mix, blocks)
    picks = {cat: iter(_strata(rng, cats[cat], n * blocks)) for cat, n in fresh_mix}
    fresh = [next(picks[cat]) for cat in sequence]
    after = {}
    for entry in _strata(rng, fresh, repeats) if repeats else ():
        k = min(len(fresh) - 1, fresh.index(entry) + rng.randrange(20))
        after.setdefault(k, []).append(entry)
    deck = []
    for k, entry in enumerate(fresh):
        deck.append(_exact_job(entry))
        deck.extend(dict(_exact_job(e), repeat=True) for e in after.get(k, ()))
    return deck


# -- numeric-eval ---------------------------------------------------------------

HOLOMORPHIC = ("E4", "E6", "E8", "delta", "j", "F7", "f6iinfty", "g5", "g7")
# named forms whose expansions hold only above a validity height
MEROMORPHIC = {"f6i": 1.0, "g": 1.0, "G": math.sqrt(7) / 2}
BITS = (64, 128, 256, 512)
Y_LO, Y_HI = 0.5, 2.5
Y_STRATA = 10
PREC_LO, PREC_HI, PREC_STRATA = 100, 400, 8

# Poincare centers as (x, y) strings with their elliptic order: i, the
# sixth root of unity, and generic points
CENTERS = ((("0", "1"), 2), (("-0.5", "0.8660254037844386"), 3),
           (("0.2", "1.3"), 1), (("-0.31", "1.17"), 1))


def _fmt(v):
    return "%.6f" % v


def numeric_eval(seed):
    """Endless numeric job sequence of a seed.  Every parameter that moves
    a job's cost or outcome (form, height stratum, bits, precision stratum,
    below or above the validity height, Poincare bound, center) runs
    through its own seeded cycle, so every stretch of 20 blocks holds
    nearly the same mix; positions inside a stratum are drawn freely."""
    rng = random.Random(seed)
    holo = _Cycle(rng, HOLOMORPHIC)
    mero = _Cycle(rng, sorted(MEROMORPHIC))
    strata = {f: _Cycle(rng, range(Y_STRATA)) for f in HOLOMORPHIC}
    bits = {f: _Cycle(rng, BITS) for f in HOLOMORPHIC + tuple(MEROMORPHIC)}
    below = {f: _Cycle(rng, (False, False, False, True)) for f in MEROMORPHIC}
    precs = _Cycle(rng, range(PREC_STRATA))
    centers = _Cycle(rng, CENTERS)
    bounds = {"psi53": _Cycle(rng, range(10, 31)), "psi200": _Cycle(rng, range(4, 9)),
              "psi-prop": _Cycle(rng, range(10, 17))}
    ks = {"psi": _Cycle(rng, (2, 3, 4)), "psi-prop": _Cycle(rng, (3, 4))}
    prop_n = _Cycle(rng, (2, 3))
    cm_bits = _Cycle(rng, range(128, 513, 32))
    nmax = _Cycle(rng, range(1, 5))
    log_lo, log_hi = math.log(PREC_LO), math.log(PREC_HI)

    def psi_point(kind, ell_choices):
        # ell + k divisible by the center's elliptic order, else the sum vanishes
        k = ks[kind].next()
        center, order = centers.next()
        ell = rng.choice([e for e in ell_choices if (e + k) % order == 0])
        at = (_fmt(rng.uniform(-0.5, 0.5)), _fmt(rng.uniform(0.8, 2.0)))
        return ["--k", str(k), "--ell", str(ell), "--zz=%s,%s" % center, "--at=%s,%s" % at], \
            {"k": k, "ell": ell, "center": center, "at": at}

    while True:
        for cat in _categories(rng, NUMERIC_MIX, 1):
            if cat in ("eval", "eval-mero"):
                stratum = precs.next() + rng.random()
                prec = int(round(math.exp(log_lo + (log_hi - log_lo) * stratum / PREC_STRATA)))
                x = rng.uniform(-0.5, 0.5)
                if cat == "eval":
                    name = holo.next()
                    width = (Y_HI - Y_LO) / Y_STRATA
                    at = (_fmt(x), _fmt(Y_LO + width * (strata[name].next() + rng.random())))
                    expect = 0
                else:
                    name = mero.next()
                    h = MEROMORPHIC[name]
                    y = rng.uniform(Y_LO, h) if below[name].next() else rng.uniform(h, Y_HI)
                    at = (_fmt(x), _fmt(y))
                    # the CLI refuses at or below the documented height
                    expect = 3 if float(at[1]) <= h else 0
                b = bits[name].next()
                yield {"argv": ["eval", name, "--at=%s,%s" % at, "--bits", str(b),
                                "--prec", str(prec), "--json"],
                       "expect": expect, "cat": cat,
                       "check": {"kind": "eval", "name": name, "at": at, "bits": b}}
            elif cat in ("psi53", "psi200"):
                b = 53 if cat == "psi53" else 200
                bound = bounds[cat].next()
                args, chk = psi_point("psi", range(-2, 3))
                chk.update(kind="psi", bound=bound, bits=b)
                yield {"argv": ["psi-sum"] + args + ["--bound", str(bound), "--bits", str(b),
                                                     "--json"],
                       "expect": 0, "cat": cat, "check": chk}
            elif cat == "psi-prop":
                # the two-variable relation is checked for kernels with a pole
                # at the center (ell < 0); see NOTES.md for ell >= 0
                args, _ = psi_point("psi-prop", (-3, -2, -1))
                yield {"argv": ["psi-prop-check"] + args +
                       ["--n", str(prop_n.next()), "--bound", str(bounds[cat].next()),
                        "--bits", "53"],
                       "expect": 0, "cat": cat}
            elif cat == "cm":
                yield {"argv": ["cm-check", "--bits", str(cm_bits.next())], "expect": 0,
                       "cat": cat}
            else:
                yield {"argv": ["eigen-num", "--m", "5", "--nmax", str(nmax.next())],
                       "expect": 0, "cat": cat}


def deck(workload, seed, universe=None):
    """The deck of a workload seed: DECK_BLOCKS[workload] blocks of 20 jobs."""
    blocks = DECK_BLOCKS[workload]
    if workload == "numeric-eval":
        gen = numeric_eval(seed)
        return [next(gen) for _ in range(20 * blocks)]
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    mix = EXPAND_MIX if workload == "expand-cold" else SESSION_MIX
    return _exact_deck(random.Random(seed), universe or load_universe(workload), mix, blocks)
