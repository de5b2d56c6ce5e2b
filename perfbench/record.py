#!/usr/bin/env python3
"""Record the exact-job universes in perfbench/data/ from the current program.

    python3 perfbench/record.py [expand-cold] [exact-session]

For each workload with exact jobs this enumerates every job its deck can
draw (a grid of targets, precisions and operator indices, plus seeded pools
of principal parts and rational series files), runs each one in-process
under the same conditions as the benchmark, and stores its exit code and
the sha256 of its stdout.  The benchmark then fails any job whose output
differs from the recorded one.  Re-record only when an output change is
intended; the pools use a fixed seed, so the jobs themselves do not change.
"""

import json
import os
import random
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

POOL_SEED = 20230502

EXPAND_TARGETS = run.NAMED + (
    "E4^3/delta - 744",
    "(E4^2*E6/delta)*(j^2-1512*j+374784)",
    "E10/delta^2",
    "j^2 - 1488*j + 159768",
    "E4*E6^2/delta^2",
    "(E8/delta)*(j - 744)",
)
# 64 log-spaced precisions from 100 to 500: expand jobs take the even ones,
# hecke jobs the odd ones (so they never share a disk-cache entry), with the
# operator index cycling through HECKE_M along the grid
PREC_GRID = [round(100 * 5 ** (i / 63)) for i in range(64)]
HECKE_M = (2, 3, 5, 7)

QUOTIENT_WEIGHTS = range(4, 62, 2)
QUOTIENT_M = (2, 3, 5, 7, 11)
QUOTIENT_KINDS = ("modM!", "modS!")
SESSION_HECKE_FORMS = run.BASE + run.NAMED
SESSION_HECKE_PRECS = (60, 80, 100, 120, 160, 200, 240)
SOLVE_POOL = 240
SOLVE_WEIGHTS = range(-2, -36, -2)
SERIES_FILES = 40


def expand_cold_jobs():
    out = []
    for t in EXPAND_TARGETS:
        for i, p in enumerate(PREC_GRID):
            if i % 2 == 0:
                out.append({"cat": "expand", "argv": ["expand", t, "--prec", str(p)]})
            else:
                m = HECKE_M[(i // 2) % len(HECKE_M)]
                out.append({"cat": "hecke",
                            "argv": ["hecke", t, "--m", str(m), "--prec", str(p)]})
    return out, {}


def _rand_frac(rng, num=60, den=12):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, num), rng.randint(1, den))


def _unobstruct(mods, weight, terms, sshriek):
    """Adjust pole coefficients so the obstruction vector vanishes; None
    when that leaves no pole.

    The dual basis is echelonized: element i has coefficient 1 at its
    leading index and 0 at the others' leading indices, so pairings are
    cleared by solving one small linear system in d pole coefficients."""
    forms, linalg, whbasis = mods["forms"], mods["linalg"], mods["whbasis"]
    kind = forms.HOLOMORPHIC if sshriek else forms.CUSPIDAL
    pp = whbasis.PrincipalPart(terms, 0)
    vec = whbasis.obstruction(weight, pp, kind)
    if not any(vec):
        return terms
    d = len(vec)
    fb = forms.basis(2 - weight, kind, 12)
    for last in range(d, 11):
        cols = list(range(1, d)) + [last]
        mat = [[fb[i].coefficient(r) for r in cols] for i in range(d)]
        x = linalg.mat_solve(mat, [-v for v in vec])
        if x is None:
            continue
        new = dict(terms)
        for r, xr in zip(cols, x):
            new[r] = new.get(r, 0) + xr
        new = {r: c for r, c in new.items() if c}
        if not new:
            return None
        if not any(whbasis.obstruction(weight, whbasis.PrincipalPart(new, 0), kind)):
            return new
    raise RuntimeError("could not clear the obstruction for weight %d" % weight)


def exact_session_jobs(mods):
    rng = random.Random(POOL_SEED)
    out = []
    for k2 in QUOTIENT_WEIGHTS:
        for m in QUOTIENT_M:
            for kind in QUOTIENT_KINDS:
                out.append({"cat": "quotient",
                            "argv": ["quotient", "--weight2k", str(k2), "--kind", kind,
                                     "--m", str(m), "--charpoly", "--check"]})
    for ident in mods["meroforms"].identity_ids():
        out.append({"cat": "verify", "argv": ["verify", ident]})
    for f in SESSION_HECKE_FORMS:
        for p in SESSION_HECKE_PRECS:
            for m in HECKE_M:
                out.append({"cat": "hecke-named",
                            "argv": ["hecke", f, "--m", str(m), "--prec", str(p)]})
    for i in range(SOLVE_POOL):
        weight = rng.choice(SOLVE_WEIGHTS)
        sshriek = i % 2 == 1
        terms = None
        while not terms:
            poles = rng.sample(range(1, 11), rng.randint(1, 4))
            terms = {r: _rand_frac(rng) for r in poles}
            if i % 4 < 2:
                terms = _unobstruct(mods, weight, terms, sshriek)
        pp = ",".join("%d:%s" % (r, terms[r]) for r in sorted(terms))
        if not sshriek and rng.random() < 0.3:
            pp = "0:%s,%s" % (_rand_frac(rng), pp)
        argv = ["solve-pp", "--weight", str(weight), "--pp", pp,
                "--prec", str(rng.choice((24, 36, 48)))]
        if sshriek:
            argv.append("--sshriek")
        out.append({"cat": "solve-pp", "argv": argv})
    files = {}
    for i in range(SERIES_FILES):
        val = rng.randint(-3, 1)
        length = rng.randint(30, 100)
        coeffs = [str(_rand_frac(rng, 10 ** 6, 1000)) for _ in range(length)]
        obj = {"series": {"valuation": val, "precision": val + length, "coefficients": coeffs},
               "weight": rng.choice(range(-12, 14, 2))}
        name = "s%02d.json" % i
        files[name] = json.dumps(obj)
        for m in HECKE_M:
            out.append({"cat": "hecke-file", "file": name,
                        "argv": ["hecke", "{file}", "--m", str(m)]})
    return out, files


def record(workload, mods, root):
    workdir = os.path.join(root, ".perfbench", "record-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if workload == "expand-cold":
            entries, files = expand_cold_jobs()
        else:
            entries, files = exact_session_jobs(mods)
        session = run.Session(workload, 0, mods, workdir, {"jobs": entries, "files": files})
        session.setup()
        for n, e in enumerate(entries):
            session.before_job()
            if workload == "expand-cold":
                # no disk cache: every recorded output is computed
                os.environ.pop(run.CACHE_ENV, None)
            code, out, err, seconds = harness.run_job(mods["cli"], session.argv(e))
            if code not in (0, 1):
                raise RuntimeError("%s exited %s: %s" % (e["argv"], code, err))
            e["exit"] = code
            e["sha256"] = harness.digest(out)
            # only ranks jobs into cost strata (jobs._strata)
            e["cost"] = round(seconds, 4)
            if n % 50 == 0:
                print("%s %d/%d" % (workload, n, len(entries)), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(jobs.DATA_DIR, workload + ".json")
    with open(path, "w") as fh:
        json.dump({"jobs": entries, "files": files}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %s (%d jobs)" % (os.path.relpath(path), len(entries)))


def main(argv):
    mods, _ = harness.import_program(os.getcwd())
    os.makedirs(jobs.DATA_DIR, exist_ok=True)
    for workload in argv or ("expand-cold", "exact-session"):
        record(workload, mods, os.getcwd())


if __name__ == "__main__":
    main(sys.argv[1:])
