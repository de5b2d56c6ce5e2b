"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests -q"""

import json
import os
import random
import sys

import mpmath
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _deck(workload, seed):
    return [json.dumps(j, sort_keys=True) for j in jobs.deck(workload, seed)]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_deck_is_deterministic_per_seed_and_differs_across_seeds(workload):
    a = _deck(workload, 11)
    assert a == _deck(workload, 11)
    assert a != _deck(workload, 12)
    assert len(a) == 20 * jobs.DECK_BLOCKS[workload]


def test_expand_cold_repeats_a_quarter_of_earlier_requests():
    deck = jobs.deck("expand-cold", 3)
    repeats = [i for i, j in enumerate(deck) if j.get("repeat")]
    assert len(repeats) == len(deck) // 4
    for i in repeats:
        assert any(j["argv"] == deck[i]["argv"] and not j.get("repeat") for j in deck[:i])


def test_strata_take_one_job_from_every_cost_stratum():
    entries = [{"argv": [str(c)], "cost": c} for c in range(100)]
    picks = jobs._strata(random.Random(1), entries, 20)
    assert sorted(p["cost"] // 5 for p in picks) == list(range(20))
    # more picks than jobs: every job is taken
    picks = jobs._strata(random.Random(1), entries[:7], 20)
    assert {p["cost"] for p in picks} == set(range(7))


def test_numeric_points_use_equals_form_and_stay_in_range():
    deck = jobs.deck("numeric-eval", 5)
    for job in deck:
        # a point is never a separate argv word, where "-0.4,2.1" reads as an option
        assert not {"--at", "--zz"} & set(job["argv"])
        assert all(a.split("=")[0] in ("--at", "--zz") for a in job["argv"] if "," in a)
        if job["cat"] in ("eval", "eval-mero"):
            x, y = (float(v) for v in job["check"]["at"])
            assert -0.5 <= x <= 0.5 and jobs.Y_LO <= y <= jobs.Y_HI
    # every holomorphic form meets every height stratum twice
    width = (jobs.Y_HI - jobs.Y_LO) / jobs.Y_STRATA
    for name in jobs.HOLOMORPHIC:
        ys = [float(j["check"]["at"][1]) for j in deck
              if j["cat"] == "eval" and j["check"]["name"] == name]
        strata = [int((y - jobs.Y_LO) / width) for y in ys]
        assert all(strata.count(s) >= 2 for s in range(jobs.Y_STRATA))


@pytest.mark.parametrize("bits", [64, 200, 512])
def test_oracle_special_values(bits):
    tol = mpmath.mpf(2) ** -bits
    with mpmath.workprec(bits + oracle.EXTRA_BITS):
        i = mpmath.mpc(0, 1)
        assert abs(oracle.form_value("j", i) - 1728) / 1728 < tol
        cm = mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(7) / 2)
        assert abs(oracle.form_value("j", cm) + 3375) / 3375 < tol
        ref = mpmath.gamma(mpmath.mpf(1) / 4) ** 24 / (2 ** 24 * mpmath.pi ** 18)
        assert abs(oracle.form_value("delta", i) - ref) / ref < tol


def test_psi_reference_routes_agree():
    args = (3, -1, ("0.2", "1.3"), ("0.1", "1.4"), 5)
    lo, scale = oracle.psi_reference(*args, 53)
    hi, _ = oracle.psi_reference(*args, 200)
    assert abs(complex(hi) - lo) < 1e-14 * scale


def test_self_time_on_synthetic_tree():
    t = spans.Tracer()
    root = t.add_span("cli.main", 0.0, 10.0)
    a = t.add_span("meroforms.build", 1.0, 4.0, root)
    t.add_span("qseries.mul", 2.0, 3.0, a)
    t.add_span("qseries.mul", 3.0, 6.0, root)   # overlaps its sibling a
    t.add_span("forms.delta", 8.0, 12.0, root)  # runs past its parent
    t.excl[a] = 0.5
    assert t.self_times() == pytest.approx([10 - 5 - 2, 3 - 1 - 0.5, 1, 3, 4])
    by_name = t.by_name()
    assert by_name["qseries.mul"] == [2, pytest.approx(4.0)]
    assert t.layer_self()["qseries"] == pytest.approx(4.0)
    # library spans directly under cli: a, the second mul and delta
    assert t.library_time() == pytest.approx(3 + 3 + 4)


def test_a_deck_job_counts_once_however_many_passes_fail_it():
    deck = [{"argv": ["a"]}, {"argv": ["b"]}, {"argv": ["c"]}]
    answers = run.Answers()
    records = []
    for _ in range(3):  # three passes
        records += [{"i": 0, "s": 0.1, "fail": None},
                    {"i": 1, "s": 0.1, "fail": "refused"},
                    {"i": 2, "s": 0.1, "fail": None}]
    s = run._judge(deck, records, answers)
    assert (s["attempted"], s["failed"], s["correct"]) == (3, 1, True)


def test_a_later_answer_must_repeat_the_first():
    answers = run.Answers()
    first = {"i": 0, "fail": None, "out": "1.0"}
    answers.keep(first)
    same, other = {"i": 0, "fail": None, "out": "1.0"}, {"i": 0, "fail": None, "out": "1.1"}
    answers.keep(same)
    answers.keep(other)
    assert "out" not in first and answers.first[0]["out"] == "1.0"
    assert same["fail"] is None and other["fail"] == "output"


def test_clock_scales_each_stretch_by_the_reference_routine(monkeypatch):
    times = iter([0.01, 0.03, 0.05])
    monkeypatch.setattr(harness, "reference_routine", lambda: next(times))
    clock = run.Clock()
    assert clock.scale() == pytest.approx(harness.REFERENCE_S / 0.02)
    assert clock.scale() == pytest.approx(harness.REFERENCE_S / 0.04)
    assert clock.samples == [0.01, 0.03, 0.05]


def _program():
    mods, _ = harness.import_program(ROOT)
    return mods


def _targets(mods):
    out = [(mods["qseries"].LaurentSeries, m) for m in spans.SERIES_METHODS + ("__init__",)]
    out += [(mods[m], f) for m, names in spans.FUNCTIONS.items() for f in names]
    out.append((mods["forms"], "_cached"))
    return out


def _attr(owner, name):
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_wrappers_record_and_restore_every_attribute():
    mods = _program()
    targets = _targets(mods)
    before = [_attr(o, n) for o, n in targets]
    tracer = spans.Tracer()
    spans.instrument(tracer, mods)
    try:
        assert all(_attr(o, n) is not b for (o, n), b in zip(targets, before))
        mods["forms"].clear_cache()
        code, out, _, _ = harness.run_job(mods["cli"], ["hecke", "j", "--m", "2", "--prec", "80"])
        assert code == 0 and out.startswith("window")
    finally:
        tracer.restore()
    assert all(_attr(o, n) is b for (o, n), b in zip(targets, before))
    by_name = tracer.by_name()
    assert by_name["cli.main"][0] == 1 and by_name["hecke.t_op"][0] == 1
    assert by_name["qseries.mul"][0] >= 1 and tracer.counts["qseries.mul.pairs"] > 0
    assert tracer.counts["hecke.t_op.out_terms"] > 0
    assert tracer.counts["forms.cache.lookups"] >= 1
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.name)))


@pytest.mark.parametrize("bound", [1, 4, 9])
def test_psi_summand_count_matches_the_resummation(bound):
    terms = oracle._summands(3, -1, 1j, 0.1 + 1.4j, bound, lambda u: u.conjugate())
    assert spans.psi_summands(bound) == sum(1 for _ in terms)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
