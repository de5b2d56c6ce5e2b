#!/usr/bin/env python3
"""Job-by-job A/B timing of two merohecke trees in one process.

    python3 bench/ab.py TREE_A TREE_B WORKLOAD SEED REPS

Loads TREE_A/src/merohecke and TREE_B/src/merohecke side by side, as the
packages merohecke_a and merohecke_b, sets up one perfbench session for
each (perfbench/run.py Session: prebuilt series, warm-up, fresh disk cache
per pass on expand-cold) and runs the deck of WORKLOAD and SEED
(perfbench/jobs.py) REPS times.  Within a rep every job runs on A and then
on B, or on B and then on A in odd reps, so both sides see the same drift
of a shared host, which over a minute can move a whole perfbench run by a
quarter.  Prints, per side, the summed time of each job category (each
job's median over the reps) beside the p50 and p90 of that category's job
times over all reps, so that a change in the tail can be traced to its
category, then the p50 and p90 of all job times, the argv of up to 5 deck
jobs whose exit code, stdout or stderr differed between the sides in some
rep, and how many deck jobs gave the same exit code, stdout and stderr on
both sides in every rep.
Times are measured seconds, not perfbench's calibrated ones.  Only the
perfbench files of this checkout are read, never changed.

REPS must be even and at least 2.  A second run of a job is faster than
its first, so with an odd REPS the side that runs first in one more rep
reads slower: the same tree against itself read B/A 0.965 at 3 reps and
1.000 at 4.  An even REPS gives each side the first run equally often, and
a median needs at least one run per side.

Exits 0 when every deck job gave the same exit code, stdout and stderr on
both sides in every rep, 1 when any job's differed, and 2 on a wrong argument
count, workload or REPS, refused before any tree is loaded, so a
byte-identity gate can be scripted on the exit code.
"""

import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import harness  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402


def load(tree, name):
    """The modules of tree/src/merohecke imported as the package name."""
    path = os.path.join(os.path.abspath(tree), "src", "merohecke")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return {m: importlib.import_module("%s.%s" % (name, m)) for m in harness.MODULES}


def quantile(values, q):
    """perfbench's q-th percentile, or the one value there is."""
    return run._quantile(values, q) if len(values) > 1 else values[0]


def run_job(session, job):
    # each side keeps its own disk cache; the variable is process-wide
    if session.cache_dir:
        os.environ[run.CACHE_ENV] = session.cache_dir
    session.before_job()
    code, out, err, seconds = harness.run_job(session.mods["cli"], session.argv(job))
    return (code, out, err), seconds


def main(argv):
    if (len(argv) != 5 or argv[2] not in jobs.WORKLOADS
            or int(argv[4]) < 2 or int(argv[4]) % 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    tree_a, tree_b, workload, seed, reps = argv[0], argv[1], argv[2], int(argv[3]), int(argv[4])
    work = tempfile.mkdtemp(prefix="merohecke-ab-")
    try:
        sessions = []
        for tag, tree in (("a", tree_a), ("b", tree_b)):
            workdir = os.path.join(work, tag)
            os.makedirs(workdir)
            session = run.Session(workload, seed, load(tree, "merohecke_" + tag), workdir)
            session.setup()
            sessions.append(session)
        deck = jobs.deck(workload, seed, sessions[0].universe)
        times = [[[] for _ in deck] for _ in sessions]
        same = [True] * len(deck)
        for rep in range(reps):
            for session in sessions:
                session.new_pass()
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for i, job in enumerate(deck):
                outputs = [None, None]
                for side in order:
                    outputs[side], seconds = run_job(sessions[side], job)
                    times[side][i].append(seconds)
                same[i] = same[i] and outputs[0] == outputs[1]
    finally:
        os.environ.pop(run.CACHE_ENV, None)
        shutil.rmtree(work, ignore_errors=True)

    print("workload %s  seed %d  deck of %d jobs  %d reps  A = %s  B = %s"
          % (workload, seed, len(deck), reps, tree_a, tree_b))
    print("%-14s %6s %12s %12s %8s %9s %9s %9s %9s" % (
        "category", "jobs", "A_ms", "B_ms", "B/A", "A_p50", "B_p50", "A_p90", "B_p90"))
    cats = sorted({job["cat"] for job in deck})
    for cat in cats + ["all"]:
        idx = [i for i, job in enumerate(deck) if cat in ("all", job["cat"])]
        a, b = (1e3 * sum(statistics.median(times[side][i]) for i in idx) for side in (0, 1))
        tails = [1e3 * quantile([s for i in idx for s in times[side][i]], q)
                 for q in (50, 90) for side in (0, 1)]
        print("%-14s %6d %12.2f %12.2f %8.3f %9.3f %9.3f %9.3f %9.3f"
              % (cat, len(idx), a, b, b / a if a else 0.0, *tails))
    for q in (50, 90):
        a, b = (1e3 * quantile([s for per_job in times[side] for s in per_job], q)
                for side in (0, 1))
        print("%-14s %6s %12.3f %12.3f %8.3f" % ("deck p%d" % q, "", a, b, b / a))
    for job in [job for job, s in zip(deck, same) if not s][:5]:
        print("differs: %s" % " ".join(job["argv"]))
    print("outputs identical: %d of %d" % (sum(same), len(deck)))
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
