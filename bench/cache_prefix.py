#!/usr/bin/env python3
"""Count the builds of merohecke's disk cache on the expand-cold decks, and
time one hit and one resumed build against one build.

    python3 bench/cache_prefix.py [--seeds 1-20] [--reps 5] [--universe]
    python3 bench/cache_prefix.py --hits [--reps 15]

Replays the expand-cold deck of each seed in order through cli.main, each
deck on an empty cache directory and with the in-process memo cleared
before every job, as perfbench/run.py does.  Every exit code and stdout
digest is checked against the recording.  Then prints, per construction,
the builds the decks needed under the current key (one entry per
construction, serving every shorter precision) and the builds they would
have needed under the former key (one entry per construction and
precision, which served only that precision): the former is replayed from
the same requests, where a request builds unless the same construction
and precision was built before without error.  Beside them it prints the
current builds that resumed their division from a shorter entry, and the
division rows those skipped.

Then times, best of --reps, cli._build_form("G", 487), the layer under
`expand G --prec 487`: built and stored on an empty cache, against served
from an entry at precision 500, and against resumed from an entry at
precision 292 (the shorter G that the seed-3 deck builds first).

With --universe, also builds each construction of the expand-cold universe
once at the largest precision any of its jobs asks for, then runs all the
universe's jobs on that cache: each must be a hit and reproduce its
recorded exit code and digest.

With --hits, only times cache hits on P = 500 entries, best of --reps:
`expand` of G at P = 100, 250 and 487, of g7 at P = 300 and of
E4^3/delta - 744 at P = 359 (a median-sized hit of the decks), and `hecke
--m 3` of G at P = 250 and of g7 at P = 132.  Entries are cache format 5,
one coefficient's decimal text per line.  For each it prints the load
(cli._cache_load: the served lines, checked canonical), the form
(cli._build_form: the load plus the int parse that `hecke` and `eval`
pay), for `expand` the text and JSON formatted from the served lines, and
the whole job through cli.main with and without --json, the in-process
memo cleared before each.  Run it from the root of a checkout.
"""

import argparse
import collections
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import jobs  # noqa: E402
from merohecke import cli, forms, meroforms, qseries  # noqa: E402

CACHE_ENV = "MEROHECKE_CACHE_DIR"


class Recorder:
    """Wraps cli._build_form: one (construction, precision, hit, built
    without error) record per cache lookup, and one (construction, division
    rows skipped) record per build that resumed from a shorter entry."""

    def __init__(self):
        self.records = []
        self.resumed = []
        self._build_form = cli._build_form
        self._cache_load = cli._cache_load
        self._divide = qseries._divide

    def __enter__(self):
        hits = []
        construction = None

        def cache_load(key, precision):
            entry = self._cache_load(key, precision)
            hits.append(entry is not None and entry[1] + len(entry[2]) == precision)
            return entry

        def divide(num, den, n, seed=()):
            out = self._divide(num, den, n, seed)
            # a seed that fails the check of its last row is recomputed
            if seed and out[:len(seed)] == list(seed[:n]):
                self.resumed.append((construction, min(len(seed), n)))
            return out

        def build_form(name, precision, **kw):
            nonlocal construction
            construction = meroforms.CONSTRUCTIONS.get(name, name)
            del hits[:]
            try:
                form = self._build_form(name, precision, **kw)
            except Exception:
                self.records.append((construction, precision, hits[0], False))
                raise
            self.records.append((construction, precision, hits[0], True))
            return form

        cli._cache_load, cli._build_form, qseries._divide = cache_load, build_form, divide
        return self

    def __exit__(self, *exc):
        cli._cache_load, cli._build_form, qseries._divide = \
            self._cache_load, self._build_form, self._divide


def run_jobs(job_list, cache_dir):
    """Run the jobs on cache_dir with the memo cleared before each; returns
    the Recorder and the jobs whose exit code or digest is not recorded."""
    os.environ[CACHE_ENV] = cache_dir
    wrong = []
    with Recorder() as rec:
        for job in job_list:
            forms.clear_cache()
            code, out, err, _ = harness.run_job(cli, job["argv"])
            if code != job["expect"] or harness.digest(out) != job["sha256"]:
                wrong.append((job["argv"], code, err.strip()[-200:]))
    return rec, wrong


def former_builds(records):
    """Builds under one entry per (construction, precision)."""
    stored, builds = set(), collections.Counter()
    for construction, precision, _, ok in records:
        if (construction, precision) not in stored:
            builds[construction] += 1
            if ok:
                stored.add((construction, precision))
    return builds


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def decks(seeds, universe, scratch):
    old, new = collections.Counter(), collections.Counter()
    resumed, skipped = collections.Counter(), collections.Counter()
    requests = 0
    for seed in seeds:
        deck = jobs.deck("expand-cold", seed, universe)
        rec, wrong = run_jobs(deck, tempfile.mkdtemp(dir=scratch))
        for w in wrong:
            print("seed %d: %s exit %s %s" % ((seed,) + w))
        requests += len(rec.records)
        old.update(former_builds(rec.records))
        new.update(c for c, _, hit, _ in rec.records if not hit)
        for construction, rows in rec.resumed:
            resumed[construction] += 1
            skipped[construction] += rows
    print("%d requests over seeds %d-%d: %d builds under (construction, precision) "
          "keys, %d under one entry per construction"
          % (requests, seeds[0], seeds[-1], sum(old.values()), sum(new.values())))
    print("%d of the current builds resumed from a shorter entry, skipping %d division rows"
          % (sum(resumed.values()), sum(skipped.values())))
    print("  %-40s %8s %8s %8s %12s" % ("construction", "former", "current", "resumed",
                                        "rows skipped"))
    for construction in sorted(old, key=old.get, reverse=True):
        print("  %-40.40s %8d %8d %8d %12d" % (construction, old[construction], new[construction],
                                              resumed[construction], skipped[construction]))


def timing(reps, scratch):
    def best(setup):
        times = []
        for _ in range(reps):
            os.environ[CACHE_ENV] = setup()
            forms.clear_cache()
            t0 = time.perf_counter()
            cli._build_form("G", 487)
            times.append(time.perf_counter() - t0)
        return min(times)

    def entry_dir(precision):
        path = tempfile.mkdtemp(dir=scratch)
        os.environ[CACHE_ENV] = path
        forms.clear_cache()
        cli._build_form("G", precision)
        return path

    longer, shorter = entry_dir(500), entry_dir(292)
    build_s = best(lambda: tempfile.mkdtemp(dir=scratch))
    hit_s = best(lambda: longer)
    resumed_s = best(lambda: shutil.copytree(shorter, tempfile.mkdtemp(dir=scratch),
                                             dirs_exist_ok=True))
    print("cli._build_form('G', 487), best of %d: build and store %.2f ms, "
          "hit on a P = 500 entry %.2f ms, resumed from a P = 292 entry and stored %.2f ms"
          % (reps, 1e3 * build_s, 1e3 * hit_s, 1e3 * resumed_s))


HITS = (("expand", "G", 100), ("expand", "G", 250), ("expand", "G", 487),
        ("expand", "g7", 300), ("expand", "E4^3/delta - 744", 359),
        ("hecke", "G", 250), ("hecke", "g7", 132))
HIT_ENTRY = 500


def hit_timing(reps, scratch):
    def best(fn):
        times = []
        for _ in range(reps):
            forms.clear_cache()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e3 * min(times)

    def job(argv):
        code, _, err, _ = harness.run_job(cli, argv)
        assert code == 0, (argv, err)

    def cell(ms):
        return "%8s" % "-" if ms is None else "%8.3f" % ms

    os.environ[CACHE_ENV] = tempfile.mkdtemp(dir=scratch)
    print("cache hits on P = %d entries, best of %d, ms:" % (HIT_ENTRY, reps))
    print("  %-6s %-16s %4s %8s %8s %8s %8s %8s %9s"
          % ("cmd", "name", "P", "load", "form", "text", "json", "job", "job-json"))
    for command, name, precision in HITS:
        forms.clear_cache()
        cli._build_form(name, HIT_ENTRY)
        construction = meroforms.CONSTRUCTIONS.get(name, name)
        weight, val, texts = cli._cache_load(construction, precision)
        assert val + len(texts) == precision, (name, precision)
        argv = [command, name, "--prec", str(precision)]
        if command == "hecke":
            argv += ["--m", "3"]
        text = obj = None
        if command == "expand":
            text = best(lambda: qseries.series_str(val, texts))
            obj = best(lambda: json.dumps(cli._series_json(qseries.series_obj(val, texts),
                                                           weight, name), indent=2, default=str))
        print("  %-6s %-16.16s %4d %s %s %s %s %s %9.3f" % (
            command, name, precision,
            cell(best(lambda: cli._cache_load(construction, precision))),
            cell(best(lambda: cli._build_form(name, precision))), cell(text), cell(obj),
            cell(best(lambda: job(argv))), best(lambda: job(argv + ["--json"]))))


def universe_check(universe, scratch):
    longest = {}
    for job in universe["jobs"]:
        target, precision = job["argv"][1], int(job["argv"][job["argv"].index("--prec") + 1])
        longest[target] = max(longest.get(target, precision), precision)
    cache_dir = tempfile.mkdtemp(dir=scratch)
    os.environ[CACHE_ENV] = cache_dir
    for target, precision in sorted(longest.items()):
        forms.clear_cache()
        code, _, err, _ = harness.run_job(cli, ["expand", target, "--prec", str(precision)])
        assert code == 0, (target, err)
    job_list = [{"argv": j["argv"], "expect": j["exit"], "sha256": j["sha256"]}
                for j in universe["jobs"]]
    rec, wrong = run_jobs(job_list, cache_dir)
    for w in wrong:
        print("universe: %s exit %s %s" % w)
    hits = sum(hit for _, _, hit, _ in rec.records)
    print("universe: %d jobs on %d entries, %d hits, %d match their recording"
          % (len(job_list), len(longest), hits, len(job_list) - len(wrong)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-20")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--universe", action="store_true")
    p.add_argument("--hits", action="store_true", help="only time cache hits")
    args = p.parse_args()
    universe = jobs.load_universe("expand-cold")
    saved = os.environ.get(CACHE_ENV)
    scratch = tempfile.mkdtemp(prefix="cache-prefix-")
    try:
        if args.hits:
            hit_timing(args.reps, scratch)
            return
        decks(parse_seeds(args.seeds), universe, scratch)
        timing(args.reps, scratch)
        if args.universe:
            universe_check(universe, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if saved is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = saved


if __name__ == "__main__":
    main()
