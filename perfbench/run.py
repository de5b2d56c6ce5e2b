#!/usr/bin/env python3
"""The merohecke benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload expand-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; merohecke is imported from ./src.  The
workload seed becomes a deck, a fixed list of merohecke command lines
(jobs.py); the run repeats the deck in whole passes for about --seconds,
and each job runs in-process through merohecke.cli.main(argv) with
captured stdout, stderr and exit code.  Every answer is checked: exact
jobs against recorded stdout digests, numeric jobs against the oracles in
oracle.py on their first pass and against that first answer after it.

--trace 0 prints the end-to-end metrics, with times in calibrated seconds
(Clock); --trace 1 runs the deck three times, untraced, with every layer
wrapped (spans.py) and untraced again, and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count the jobs of the
deck, so they repeat exactly for a seed.  See NOTES.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

# set-up (a fresh import of merohecke and Session.setup) runs at least
# SETUP_MIN_REPS times and again until SETUP_MIN_S have passed, at most
# SETUP_MAX_REPS times; setup_s is the median
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_MIN_S = 2.0
# the calibrated clock (Clock) runs the reference routine after about this
# many seconds of jobs
CHUNK_S = 1.0
CACHE_ENV = "MEROHECKE_CACHE_DIR"
CLI_PRINT_DIGITS = 1e-39  # eval prints 40 significant digits per component

NAMED = ("f6iinfty", "f6i", "F7", "G", "g", "g5", "g7")
BASE = ("E4", "E6", "E8", "delta", "j")
SESSION_PREC = 240
NUMERIC_PREC = 400

WARMUP = {
    "expand-cold": (["expand", "E4", "--prec", "30"], ["expand", "G", "--prec", "30"],
                    ["hecke", "delta", "--m", "2", "--prec", "30"]),
    "numeric-eval": (["eval", "E4", "--at=0,1", "--bits", "64", "--prec", "100", "--json"],
                     ["cm-check", "--bits", "128"],
                     ["psi-sum", "--k", "3", "--ell", "-1", "--zz=0,1", "--at=0,2",
                      "--bound", "4", "--bits", "53", "--json"],
                     ["eigen-num", "--m", "5", "--nmax", "1"]),
}

END_TO_END = (("jobs_per_s", "1/s"), ("job_s.p50", "s"), ("job_s.p90", "s"),
              ("ok_ratio", "ratio"), ("within_bound_ratio", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("qseries.mul.calls", "count"), ("qseries.mul.self_s", "s"),
    ("qseries.mul.pairs", "count"), ("qseries.mul.out_bits", "bit"),
    ("qseries.mul.short_share", "ratio"),
    ("qseries.invert.calls", "count"), ("qseries.invert.self_s", "s"),
    ("qseries.invert.terms", "count"), ("qseries.pow.calls", "count"),
    ("qseries.div.calls", "count"),
    ("qseries.init.calls", "count"), ("qseries.init.self_s", "s"),
    ("qseries.init.coeffs", "count"),
    ("meroforms.build_expression.calls", "count"), ("meroforms.build_expression.self_s", "s"),
    ("meroforms.build.calls", "count"), ("meroforms.verify_identity.self_s", "s"),
    ("forms.eisenstein.self_s", "s"), ("forms.delta.self_s", "s"),
    ("forms.j_function.self_s", "s"), ("forms.basis.calls", "count"),
    ("forms.basis.self_s", "s"), ("forms.cache.hit_ratio", "ratio"),
    ("linalg.rref.calls", "count"), ("linalg.rref.self_s", "s"), ("linalg.rref.cells", "count"),
    ("linalg.charpoly.calls", "count"), ("linalg.charpoly.self_s", "s"),
    ("hecke.t_op.calls", "count"), ("hecke.t_op.self_s", "s"), ("hecke.t_op.out_terms", "count"),
    ("whbasis.obstruction.self_s", "s"), ("whbasis.wh_slice_basis.self_s", "s"),
    ("whbasis.solve_principal_part.calls", "count"),
    ("whbasis.solve_principal_part.self_s", "s"),
    ("whbasis.bol_image_membership.self_s", "s"),
    ("quotient.quotient_hecke_matrix.calls", "count"),
    ("quotient.quotient_hecke_matrix.self_s", "s"), ("quotient.theorem_check.self_s", "s"),
    ("numeval.eval_series.calls", "count"), ("numeval.eval_series.self_s", "s"),
    ("numeval.eval_series.terms", "count"),
    ("numeval.psi_truncated.calls", "count"), ("numeval.psi_truncated.self_s", "s"),
    ("numeval.psi_truncated.summands", "count"),
    ("numeval.alpha_constant.self_s", "s"), ("numeval.refusals", "count"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.cache.hit_ratio", "ratio"), ("cli.cache.bytes_written", "B"),
) + tuple(("layer.%s.self_s" % layer, "s") for layer in spans.LAYERS) + (
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
)

# Failure reasons.  These three mean the program gave a wrong answer (an
# exact output or exit code that differs from the recording or from the
# job's first answer, a failed self-check, an escaped exception) and clear
# `correct`.  The other two, "refused" (exit 3 where the form converges)
# and "bound" (a numeric value off by more than its err_bound plus
# rounding), are the numeric layer's accuracy record: they count as failed
# jobs and lower ok_ratio and within_bound_ratio, which carry their own
# bounds.
WRONG = ("crash", "exit", "output")


class Session:
    """One workload's state inside this process: its work directory with
    series files and disk cache, and the in-process memo."""

    def __init__(self, workload, seed, mods, workdir, universe=None):
        self.workload = workload
        self.seed = seed
        self.mods = mods
        self.workdir = workdir
        if universe is None and workload != "numeric-eval":
            universe = jobs.load_universe(workload)
        self.universe = universe
        self.cache_dir = None
        self._resets = 0

    def setup(self):
        """Fresh files, caches, prebuilt series and warm-up."""
        mods = self.mods
        os.environ.pop(CACHE_ENV, None)
        mods["forms"].clear_cache()
        if self.workload == "exact-session":
            self.series_dir = os.path.join(self.workdir, "series")
            os.makedirs(self.series_dir, exist_ok=True)
            for name, content in self.universe["files"].items():
                with open(os.path.join(self.series_dir, name), "w") as fh:
                    fh.write(content)
            self._prebuild(SESSION_PREC)
            warm = {}
            for e in self.universe["jobs"]:
                warm.setdefault(e["cat"], e)
            for e in warm.values():
                harness.run_job(mods["cli"], self.argv(e))
        elif self.workload == "numeric-eval":
            self._prebuild(NUMERIC_PREC)
        for argv in WARMUP.get(self.workload, ()):
            harness.run_job(mods["cli"], argv)
        if self.workload == "expand-cold":
            mods["forms"].clear_cache()
            self.new_pass()

    def _prebuild(self, prec):
        for name in NAMED:
            self.mods["meroforms"].build(name, prec)
        for name in BASE:
            self.mods["meroforms"].build_expression(name, prec)

    def new_pass(self):
        """Every pass over an expand-cold deck starts on an empty disk
        cache, so its misses stay misses however often the deck repeats."""
        if self.workload != "expand-cold":
            return
        self._resets += 1
        self.cache_dir = os.path.join(self.workdir, "cache-%d" % self._resets)
        os.makedirs(self.cache_dir)
        os.environ[CACHE_ENV] = self.cache_dir

    def argv(self, job):
        if "file" in job:
            path = os.path.join(self.series_dir, job["file"])
            return [path if a == "{file}" else a for a in job["argv"]]
        return job["argv"]

    def before_job(self):
        # a CLI user starts every expand-cold job in a fresh process
        if self.workload == "expand-cold":
            self.mods["forms"].clear_cache()


def _run(session, index, job):
    session.before_job()
    code, out, err, dt = harness.run_job(session.mods["cli"], session.argv(job))
    rec = {"i": index, "code": code, "s": dt, "fail": None}
    if code is None:
        rec["fail"] = "crash"
        rec["err"] = err
    elif "sha256" in job:
        if code != job["expect"]:
            rec["fail"] = "exit"
        elif harness.digest(out) != job["sha256"]:
            rec["fail"] = "output"
    elif code != job["expect"]:
        rec["fail"] = "refused" if code == 3 and job["expect"] == 0 else "exit"
    elif "check" in job and code == 0:
        rec["out"] = out
    return rec


class Answers:
    """First numeric answer of every deck job.  The oracle checks that one
    after the timed phase; every later answer must repeat it exactly."""

    def __init__(self):
        self.first = {}
        self.digests = {}

    def keep(self, rec):
        out = rec.pop("out", None)
        if out is None:
            return
        i = rec["i"]
        if i not in self.first:
            self.first[i] = dict(rec, out=out)
            self.digests[i] = harness.digest(out)
        elif harness.digest(out) != self.digests[i]:
            rec["fail"] = "output"


def _check_numeric(rec, job):
    """Compare a numeric answer with its oracle; sets rec['fail'] to 'bound'
    when the error exceeds the reported err_bound plus rounding."""
    chk = job["check"]
    obj = json.loads(rec.pop("out"))
    bits = chk["bits"]
    with mpmath.workprec(bits + oracle.EXTRA_BITS):
        value = mpmath.mpc(mpmath.mpf(obj["value_re"]), mpmath.mpf(obj["value_im"]))
        err_bound = mpmath.mpf(obj["err_bound"])
        if chk["kind"] == "eval":
            ref = oracle.eval_reference(chk["name"], chk["at"][0], chk["at"][1], bits)
            allowance = (mpmath.mpf(2) ** -bits + CLI_PRINT_DIGITS) * abs(ref)
        else:
            ref, scale = oracle.psi_reference(chk["k"], chk["ell"], chk["center"], chk["at"],
                                              chk["bound"], bits)
            ref = mpmath.mpc(ref)
            allowance = (mpmath.mpf(2) ** -bits + CLI_PRINT_DIGITS) * scale
        error = abs(value - ref)
        rec["rel_excess"] = float(error / (err_bound + allowance)) if error else 0.0
        if error > err_bound + allowance:
            rec["fail"] = "bound"


class Clock:
    """Calibrated seconds.

    The host is shared: other tenants slow every instruction of this
    process, by up to a half and for minutes at a time, and CPU time slows
    with wall time, so no measurement of the program alone tells that
    apart from a slower program.  The clock runs harness.reference_routine
    between stretches of about CHUNK_S seconds of jobs and scales each
    stretch by REFERENCE_S over the mean of the routine's times before and
    after it: a calibrated second is a second on a machine where the
    routine takes REFERENCE_S."""

    def __init__(self):
        self.last = harness.reference_routine()
        self.samples = [self.last]

    def scale(self):
        """Run the routine now; the factor for the stretch since the last call."""
        now = harness.reference_routine()
        factor = harness.REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.samples.append(now)
        return factor


def _pass(session, deck, answers, clock=None):
    """One pass over the deck.  Returns (records, seconds, calibrated
    seconds); with a clock, every record gets its calibrated duration
    `cal_s`, and the routine's own time counts to neither total."""
    session.new_pass()
    recs = []
    seconds = calibrated = 0.0
    stretch = 0
    t0 = time.perf_counter()
    for i, job in enumerate(deck):
        rec = _run(session, i, job)
        answers.keep(rec)
        recs.append(rec)
        elapsed = time.perf_counter() - t0
        if clock and (elapsed >= CHUNK_S or i == len(deck) - 1):
            factor = clock.scale()
            for r in recs[stretch:]:
                r["cal_s"] = r["s"] * factor
            seconds += elapsed
            calibrated += elapsed * factor
            stretch = len(recs)
            t0 = time.perf_counter()
    if not clock:
        seconds = time.perf_counter() - t0
    return recs, seconds, calibrated


def _timed(session, deck, answers, seconds, clock):
    """Whole passes over the deck; another pass starts only when it is due
    to end before `seconds` plus half a pass, so a run lasts seconds give
    or take half a pass.  Returns (records, seconds and calibrated seconds
    of the jobs, number of passes)."""
    records = []
    job_s = cal_s = 0.0
    passes = 0
    t0 = time.perf_counter()
    while True:
        recs, s, c = _pass(session, deck, answers, clock)
        records.extend(recs)
        job_s += s
        cal_s += c
        passes += 1
        wall = time.perf_counter() - t0
        if wall * (1 + 0.5 / passes) >= seconds:
            return records, job_s, cal_s, passes


def _judge(deck, records, answers):
    """Oracle checks of the first numeric answers, then the outcome of every
    deck job: its first failure in any pass, or none."""
    for i, rec in answers.first.items():
        _check_numeric(rec, deck[i])
    failures = {}
    for rec in list(answers.first.values()) + records:
        if rec["fail"] and rec["i"] not in failures:
            failures[rec["i"]] = rec
    numeric = [rec for rec in answers.first.values() if "rel_excess" in rec]
    return {
        "attempted": len(deck),
        "failed": len(failures),
        "correct": not any(r["fail"] in WRONG for r in failures.values()),
        "fail_ratio": len(failures) / len(deck),
        "numeric": len(numeric),
        "violations": sum(1 for r in numeric if r["fail"] == "bound"),
        "failures": [failures[i] for i in sorted(failures)],
    }


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_reps(session, root, clock):
    """A fresh import plus Session.setup, repeated; returns the median
    calibrated and measured seconds and the count."""
    cal, measured = [], []
    start = time.perf_counter()
    while len(cal) < SETUP_MIN_REPS or (time.perf_counter() - start < SETUP_MIN_S
                                        and len(cal) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        session.mods, _ = harness.import_program(root)
        session.setup()
        dt = time.perf_counter() - t0
        measured.append(dt)
        cal.append(dt * clock.scale())
    return statistics.median(cal), statistics.median(measured), len(cal)


def untraced(session, deck, seconds, root):
    clock = Clock()
    setup_s, setup_measured, setup_n = _setup_reps(session, root, clock)
    answers = Answers()
    records, job_s, cal_s, passes = _timed(session, deck, answers, seconds, clock)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = _judge(deck, records, answers)
    durations = [r["cal_s"] for r in records]
    measured_durations = [r["s"] for r in records]
    p90 = _quantile(durations, 90)
    bvr = s["violations"] / s["numeric"] if s["numeric"] else 0.0
    metrics = {
        "jobs_per_s": len(records) / cal_s,
        "job_s.p50": statistics.median(durations),
        "job_s.p90": p90,
        "ok_ratio": 1.0 - s["fail_ratio"],
        "within_bound_ratio": 1.0 - bvr,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    measured = {
        "jobs_per_s": len(records) / job_s,
        "job_s.p50": statistics.median(measured_durations),
        "job_s.p90": _quantile(measured_durations, 90),
        "setup_s": setup_measured,
    }
    ref = sorted(clock.samples)
    print("workload %s  seed %d  deck of %d jobs, %d passes: %d jobs in %.2f s  "
          "(%d samples above p90; setup_s the median of %d set-ups)"
          % (session.workload, session.seed, len(deck), passes, len(records), job_s,
             sum(1 for d in durations if d > p90), setup_n))
    print("  reference routine: %d runs, median %.2f ms (quartiles %.2f, %.2f; %.0f ms "
          "calibrated)" % (len(ref), 1e3 * statistics.median(ref), 1e3 * ref[len(ref) // 4],
                           1e3 * ref[3 * len(ref) // 4], 1e3 * harness.REFERENCE_S))
    print("  %-22s %14s %14s" % ("", "calibrated", "measured"))
    for name, unit in END_TO_END:
        print("  %-22s %14.6g %14s %s" % (name, metrics[name],
                                          "%.6g" % measured[name] if name in measured else "",
                                          unit))
    print("  %-22s %14.6g %14s %s  (%d of %d deck jobs)"
          % ("fail_ratio", s["fail_ratio"], "", "ratio", s["failed"], s["attempted"]))
    print("  %-22s %14.6g %14s %s  (%d of %d numeric answers)"
          % ("bound_violation_ratio", bvr, "", "ratio", s["violations"], s["numeric"]))
    _print_failures(deck, s["failures"])
    return s, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def _print_failures(deck, failures):
    for r in failures:
        detail = "  (error %.3g x allowed)" % r["rel_excess"] if r["fail"] == "bound" else ""
        print("  FAIL %-8s %s%s%s" % (r["fail"], " ".join(deck[r["i"]]["argv"]), detail,
                                      "\n" + r["err"] if "err" in r else ""))


def _cache_state(path):
    if not path or not os.path.isdir(path):
        return {}
    return {e.name: e.stat().st_size for e in os.scandir(path)}


def traced(session, deck, trace_path):
    """Untraced pass, traced pass, untraced pass over the deck; the overhead
    compares the traced pass with the mean of the two untraced ones, so that
    warm-up inside the first pass does not count, each pass in calibrated
    seconds (the reference routine runs before and after it)."""
    answers = Answers()
    clock = Clock()

    def untraced_pass():
        session.setup()
        clock.scale()
        recs, seconds, _ = _pass(session, deck, answers)
        return recs, seconds * clock.scale()

    first, t_first = untraced_pass()
    session.setup()
    session.new_pass()
    clock.scale()
    tracer = spans.Tracer()
    spans.instrument(tracer, session.mods)
    consulted = hits = written = 0
    try:
        t0 = time.perf_counter()
        second = []
        for i, job in enumerate(deck):
            tracer.current_job = i
            before = _cache_state(session.cache_dir)
            rec = _run(session, i, job)
            answers.keep(rec)
            second.append(rec)
            if session.cache_dir and job["argv"][0] in ("expand", "hecke") \
                    and "file" not in job:
                after = _cache_state(session.cache_dir)
                new = {k: v for k, v in after.items() if before.get(k) != v}
                consulted += 1
                hits += not new
                written += sum(new.values())
        t_traced = time.perf_counter() - t0
    finally:
        tracer.restore()
    t_traced *= clock.scale()
    third, t_third = untraced_pass()
    t_untraced = (t_first + t_third) / 2
    s = _judge(deck, first + second + third, answers)
    _print_failures(deck, s["failures"])

    by_name = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return by_name.get(name, (0, 0.0))[0]

    def self_s(name):
        return by_name.get(name, (0, 0.0))[1]

    metrics = {}
    for name, unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "calls":
            metrics[name] = calls(base)
        elif what == "self_s" and not base.startswith("layer."):
            metrics[name] = self_s(base)
        elif name in counts:
            metrics[name] = counts[name]
        else:
            metrics[name] = 0
    mul_calls = calls("qseries.mul")
    metrics["qseries.mul.short_share"] = counts.get("qseries.mul.short", 0) / mul_calls \
        if mul_calls else 0.0
    lookups = counts.get("forms.cache.lookups", 0)
    metrics["forms.cache.hit_ratio"] = counts.get("forms.cache.hits", 0) / lookups \
        if lookups else 0.0
    metrics["cli.cache.hit_ratio"] = hits / consulted if consulted else 0.0
    metrics["cli.cache.bytes_written"] = written
    layer_self = tracer.layer_self()
    for layer, v in layer_self.items():
        metrics["layer.%s.self_s" % layer] = v
    job_wall = sum(r["s"] for r in second)
    metrics["trace.coverage"] = tracer.library_time() / job_wall
    metrics["trace.overhead"] = t_untraced / t_traced

    total_self = sum(layer_self.values())
    top = max(layer_self, key=layer_self.get)
    print("workload %s  seed %d  deck of %d jobs: untraced %.2f s and %.2f s, traced %.2f s "
          "(calibrated), %d spans" % (session.workload, session.seed, len(deck), t_first, t_third, t_traced,
                        len(tracer.name)))
    for layer in sorted(layer_self, key=layer_self.get, reverse=True):
        print("  %-10s self %9.3f s  %5.1f%%"
              % (layer, layer_self[layer], 100 * layer_self[layer] / total_self))
    print("  largest self time: %s" % top)
    for name, unit in PER_LAYER:
        print("  %-40s %14.6g %s" % (name, metrics[name], unit))
    tracer.dump(trace_path)
    print("  spans written to %s" % os.path.relpath(trace_path))
    return s, {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    try:
        mods, _ = harness.import_program(root)
    except harness.ProgramMissing as e:
        print("perfbench: %s; run from the root of a merohecke checkout" % e, file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench")
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    os.makedirs(workdir)
    saved_env = os.environ.get(CACHE_ENV)
    try:
        session = Session(args.workload, args.seed, mods, workdir)
        deck = jobs.deck(args.workload, args.seed, session.universe)
        if args.trace:
            trace_path = os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
            summary, metrics = traced(session, deck, trace_path)
        else:
            summary, metrics = untraced(session, deck, args.seconds, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if saved_env is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = saved_env
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
