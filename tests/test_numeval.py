"""Arbitrary-precision numeric layer: series evaluation on the upper
half-plane, special-point checks, and truncated elliptic Poincare sums."""

import cmath
import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from merohecke import cli, forms, hecke, numeval
from merohecke.meroforms import CONSTRUCTIONS, VALIDITY_HEIGHT, build, build_expression
from merohecke.numeval import (
    DivergentTail,
    EvalResult,
    HPoint,
    PoincareSeed,
    RegionGuard,
    alpha_constant,
    cm_checks,
    cm_point,
    elliptic_order,
    eval_series,
    hecke_value,
    hecke_value_agreement,
    psi_section_check,
    psi_truncated,
    psi_two_variable_check,
    script_g_coefficient,
    slash_value,
    verify_f6i_eigen,
)
from merohecke.qseries import LaurentSeries


# -- points and containers -------------------------------------------------

def test_hpoint_parse():
    p = HPoint.parse("0.5, 2")
    assert p.x == "0.5" and p.y == "2"
    assert p.to_complex() == complex(0.5, 2.0)
    with pytest.raises(ValueError):
        HPoint.parse("1")
    with pytest.raises(ValueError):
        HPoint(0, 0)
    with pytest.raises(ValueError):
        HPoint(0, -1)
    for x, y in (("0", "inf"), ("inf", "1"), ("-inf", "1"), ("nan", "1"), (0, float("nan"))):
        with pytest.raises(ValueError):
            HPoint(x, y)
    with pytest.raises(AttributeError):
        p.x = "1"


def test_poincare_seed_guard():
    s = PoincareSeed(2, 0, HPoint(0, 1))
    assert s.k == 2 and s.ell == 0
    with pytest.raises(ValueError):
        PoincareSeed(1, 0, HPoint(0, 1))
    with pytest.raises(AttributeError):
        s.k = 3


def test_eval_result_shape():
    r = eval_series(forms.delta(20).series, (0, 2), 80)
    obj = r.to_json_obj()
    assert set(obj) == {"value_re", "value_im", "err_bound", "tail_note"}
    assert complex(r) == complex(r.value)
    with pytest.raises(AttributeError):
        r.value = 0


# -- evaluation against closed-form special values ---------------------------

def test_delta_at_i():
    # eta(i)^24 = Gamma(1/4)^24 / (2^24 pi^18), a classical closed form
    with mpmath.workprec(260):
        got = eval_series(forms.delta(60).series, (0, 1), 200).value
        truth = mpmath.gamma(mpmath.mpf(1) / 4) ** 24 / (2 ** 24 * mpmath.pi ** 18)
        assert abs(got - truth) / truth < mpmath.mpf(1e-60)


def test_j_special_values():
    with mpmath.workprec(260):
        ji = eval_series(forms.j_function(60).series, (0, 1), 200).value
        assert abs(ji - 1728) < mpmath.mpf(1e-50)
        rho = (mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2)
        jrho = eval_series(forms.j_function(60).series, rho, 200).value
        assert abs(jrho) < mpmath.mpf(1e-50)


def test_point_argument_forms():
    s = forms.delta(30).series
    a = eval_series(s, HPoint("0.25", "1.5"), 120).value
    b = eval_series(s, (0.25, 1.5), 120).value
    c = eval_series(s, complex(0.25, 1.5), 120).value
    assert a == b
    # the complex literal carries double rounding only
    assert abs(a - c) / abs(a) < mpmath.mpf(1e-14)


def test_eval_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        eval_series(forms.delta(10).series, (0, -1), 80)


def test_rejects_out_of_range_arguments():
    e4 = forms.eisenstein(4, 10).series
    for bits in (0, -50):
        with pytest.raises(ValueError, match="bits"):
            eval_series(e4, HPoint(0, 1), bits)
    seed = PoincareSeed(3, -1, HPoint(0, 1))
    for bound in (0, -3):
        for bits in (53, 120):
            with pytest.raises(ValueError, match="bound"):
                psi_truncated(seed, HPoint(0, 2), bound, bits)
    for bits in (0, -50):
        with pytest.raises(ValueError, match="bits"):
            psi_truncated(seed, HPoint(0, 2), 2, bits)
    with pytest.raises(ValueError, match="index"):
        psi_two_variable_check(3, -1, (0, 1), (0, 1.5), 0, bound=2)
    with pytest.raises(ValueError, match="vacuous"):
        psi_two_variable_check(5, 0, (0.2, 1.3), (0, 1.5), 2, bound=2)


def test_region_guard():
    f = build("f6i", 20)
    height = VALIDITY_HEIGHT["f6i"]
    with pytest.raises(RegionGuard):
        eval_series(f.series, (0, 0.5), 80, min_height=height)
    # at the height, not above it: still guarded
    with pytest.raises(RegionGuard):
        eval_series(f.series, (0, 1.0), 80, min_height=height)
    # above is fine
    eval_series(f.series, (0, 1.01), 80, min_height=height)


def test_divergent_tail():
    # 1/E6 has a pole at height 1; below it the coefficient growth beats
    # the q-decay and the evaluator must refuse rather than return noise
    inv_e6 = build_expression("E6^-1", 40).series
    with pytest.raises(DivergentTail):
        eval_series(inv_e6, (0, 0.9), 53)
    # well above the pole the same window is summable
    eval_series(inv_e6, (0, 1.4), 53)


def test_zero_series_notes():
    r = eval_series(LaurentSeries.zero(5), (0, 1), 80)
    assert r.value == 0 and r.err_bound == 0
    assert r.tail_note == "all stored coefficients are zero"
    r = eval_series(LaurentSeries.zero(5, valuation=5), (0, 1), 80)
    assert r.tail_note == "empty window"


def _eval_series_mpc(f, z, bits):
    """The series summed term by term in mpc at bits + 30, one mpf
    conversion, one mpc product and one mpc sum per coefficient, with the
    tail model of eval_series computed in mpf: the route eval_series took
    before it summed in fixed point."""
    with mpmath.workprec(bits + 30):
        zz = numeval._as_mpc(z)
        y = zz.imag
        if f.prec <= f.val:
            return EvalResult(mpmath.mpc(0), mpmath.mpf(0), "empty window")
        q = mpmath.exp(2j * mpmath.pi * zz)
        qa = abs(q)
        total = mpmath.mpc(0)
        qp = q ** f.val
        last_idx = None
        for n, c in enumerate(f.coeffs, f.val):
            if c:
                last_term = numeval._coeff_num(c) * qp
                total += last_term
                last_idx = n
            qp *= q
        if last_idx is None:
            return EvalResult(mpmath.mpc(0), mpmath.mpf(0), "all stored coefficients are zero")
        last_mag = abs(last_term)
        length = f.prec - f.val
        tail_lo = f.prec - max(2, (length + 3) // 4)
        ratio = None
        prev = None
        for n in range(max(tail_lo, f.val), f.prec):
            c = f.coefficient(n)
            if c:
                if prev is not None:
                    r = abs(numeval._coeff_num(c)) / abs(numeval._coeff_num(prev))
                    ratio = r if ratio is None else max(ratio, r)
                prev = c
        if ratio is None:
            bound = last_mag * qa ** (f.prec - last_idx) / (1 - qa)
            note = "no nonzero ratio pair in tail sample; flat-continuation bound"
            return EvalResult(total, bound, note)
        r = ratio * qa
        if r >= 1:
            raise DivergentTail(
                "tail ratio %s * |q| = %s is >= 1 at y = %s"
                % (mpmath.nstr(ratio, 8), mpmath.nstr(r, 8), mpmath.nstr(y, 8)))
        return EvalResult(total, last_mag * r / (1 - r))


def test_tail_bound_covers_truncation():
    # the reported bound must cover the actually-missing terms: compare a
    # short window against a long one at moderate height
    lo = eval_series(forms.delta(30).series, (0.1, 0.8), 200)
    hi = eval_series(forms.delta(90).series, (0.1, 0.8), 200)
    assert abs(lo.value - hi.value) <= 3 * lo.err_bound


def _matches_reference(f, z, bits):
    """eval_series(f, z, bits) against _eval_series_mpc at bits + 100, where
    the loop's own error, up to a few units per term times the terms'
    cancellation, is far below 2^-(bits + 30): the value within one rounding
    to bits + 30 plus the planned fixed-point error 2^-(bits + 34), the
    bound within a few units of bits + 30, the same note, and DivergentTail
    where the loop raises it.  Returns the result or the DivergentTail."""
    try:
        want = _eval_series_mpc(f, z, bits + 100)
    except DivergentTail:
        with pytest.raises(DivergentTail) as exc:
            eval_series(f, z, bits)
        return exc.value
    got = eval_series(f, z, bits)
    assert got.tail_note == want.tail_note
    with mpmath.workprec(bits + 130):
        unit = mpmath.mpf(2) ** -(bits + 30)
        assert abs(got.value - want.value) <= (1 + 2 ** -4) * unit * abs(want.value)
        assert abs(got.err_bound - want.err_bound) <= 8 * unit * want.err_bound
    return got


# sha256 over 20 evaluations per form of the exact mantissas of value and
# err_bound plus tail_note, or the DivergentTail message: bits 64..512,
# precision 100..400, x in [-0.5, 0.5], y in [0.5, 2.5], drawn from a fixed
# seed.  Recorded from the Horner route in fixed point; each case is also
# checked against the term-by-term mpc loop.
PINNED_EVAL = {
    "E4": "45beb9af6333a1d8343cd5a556128bde87c58fc5c6a2ebda87448c3ede4794fe",
    "E6": "5bf551c8ae4aba82702cf5f3f32fc8ae36f51c35bbe43fcf6c9075197661a05a",
    "E10": "0e70f63a5b6c9ae5695875ccb84886b8e1acdff0b27aee9d5dd3e54183bbe8a0",
    "delta": "cced40b1589fe4fbc6e015d5fd1d3fdd42f2f4ce73205df12f4bac68661493e9",
    "j": "b8c7589c5e07d25e186b79376c99f7a403dbf255cb1080f2721af8d7ff5ae3ea",
    "G": "cbb1f67ce7c6db2c30be20eec9ce63a2f630a39b59cf66213b72c2ac288e2bc8",
    "f6i": "866787b1911deaad5d64a891ec96ee7313283e4c7cc8d4600a908c2d02957fe7",
    "g7": "267459e5b70c476785f1bf2171b967ea0a839016904c3635c4bfcdd75b397088",
}


def test_eval_series_pinned():
    rng = random.Random(160)
    for name, want in PINNED_EVAL.items():
        h = hashlib.sha256()
        for _ in range(20):
            bits = rng.randint(64, 512)
            precision = rng.randint(100, 400)
            z = complex(rng.randint(-500, 500) / 1000, rng.randint(500, 2500) / 1000)
            if name in CONSTRUCTIONS:
                series = build(name, precision).series
            else:
                series = build_expression(name, precision).series
            r = _matches_reference(series, z, bits)
            if isinstance(r, DivergentTail):
                rec = "DivergentTail: %s" % r
            else:
                rec = repr((r.value.real._mpf_, r.value.imag._mpf_, r.err_bound._mpf_,
                            r.tail_note))
            h.update(rec.encode() + b"\n")
        assert h.hexdigest() == want, name


@functools.lru_cache(maxsize=None)
def _built(name):
    return cli._build_form(name, 40).series


@st.composite
def _windows(draw):
    """A stored window: a named form cut at a drawn precision (E4 from
    q^0, delta from q^1, j from q^-1, g5 from q^-5), a Hecke image of g5 in
    weight -4 (Fraction coefficients, as eigen-num evaluates), or drawn
    int and Fraction coefficients from a drawn valuation, possibly none or
    all zero."""
    kind = draw(st.sampled_from(("form", "hecke", "drawn")))
    if kind == "drawn":
        coeff = st.integers(-10 ** 6, 10 ** 6) | st.fractions(-10 ** 4, 10 ** 4, max_denominator=10 ** 4)
        return LaurentSeries(draw(st.integers(-5, 5)), draw(st.lists(coeff | st.just(0), max_size=24)))
    if kind == "hecke":
        f = hecke.t_op(_built("g5"), -4, draw(st.integers(2, 4)))
    else:
        f = _built(draw(st.sampled_from(("E4", "delta", "j", "g5"))))
    return f.truncate(draw(st.integers(f.val, f.prec)))


@settings(max_examples=120, deadline=None)
@given(f=_windows(), x=st.floats(-0.5, 0.5), y=st.floats(0.3, 2.5), bits=st.integers(1, 512))
@example(f=LaurentSeries(2, []), x=0.1, y=1.0, bits=64)
@example(f=LaurentSeries(-3, [0, 0, 0, 0]), x=0.1, y=1.0, bits=64)
# one nonzero coefficient: no ratio pair, the flat-continuation bound
@example(f=LaurentSeries(4, [0, Fraction(-3, 7), 0]), x=-0.2, y=0.7, bits=1)
# a Fraction leading coefficient 1/32 below int coefficients
@example(f=hecke.t_op(cli._build_form("g5", 40).series, -4, 2), x=0.0, y=1.0, bits=200)
def test_eval_series_matches_mpc_loop(f, x, y, bits):
    _matches_reference(f, (x, y), bits)


@pytest.mark.parametrize("name, at, bits, prec", [
    ("g7", "0.436189,0.580479", 128, 330),
    ("g5", "-0.465027,0.509375", 64, 194),
])
def test_eval_cancellation_within_bits(capsys, name, at, bits, prec):
    # the terms reach about 2^40 times the value here; summed in mpc at
    # bits + 30 the value missed 2^-bits relative by 60 (g7) and 65 (g5)
    # times, against the same form evaluated at 700 bits from P = 900
    code = cli.main(["eval", name, "--at=" + at, "--bits", str(bits), "--prec", str(prec),
                     "--json"])
    assert code == cli.EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    x, y = at.split(",")
    want = _eval_series_mpc(cli._build_form(name, 900).series, (x, y), 700).value
    with mpmath.workprec(700):
        got = mpmath.mpc(mpmath.mpf(obj["value_re"]), mpmath.mpf(obj["value_im"]))
        assert abs(got - want) <= mpmath.mpf(2) ** -bits * abs(want)


@pytest.mark.parametrize("name, point", [
    ("E6", (0, 1)),
    ("E4", ("-0.5", "0.866025403784438646763723170752936183471402626905190314027903")),
])
def test_eval_at_zero_of_form_ends(monkeypatch, name, point):
    # E6(i) = E4(rho) = 0: |V| stays below the planned 2^-(bits + 34) |w_0|,
    # so the unit is refined exactly once, to at most twice the plan
    units = []
    horner = numeval._horner

    def spy(*args):
        units.append(args[-1])
        return horner(*args)
    monkeypatch.setattr(numeval, "_horner", spy)
    res = eval_series(forms.eisenstein(int(name[1:]), 60).series, point, 128)
    assert len(units) == 2 and units[0] < units[1] <= 2 * units[0]
    assert abs(res.value) < mpmath.mpf(2) ** -128


# -- modular transformation behavior ----------------------------------------

def test_slash_invariance():
    z = (0.3, 1.2)
    inv = ((0, -1), (1, 0))
    jf = forms.j_function(50).series
    direct = eval_series(jf, z, 200).value
    flipped = slash_value(jf, 0, inv, z, 200).value
    assert abs(direct - flipped) / abs(direct) < mpmath.mpf(1e-35)
    dl = forms.delta(50).series
    direct = eval_series(dl, z, 200).value
    flipped = slash_value(dl, 12, inv, z, 200).value
    assert abs(direct - flipped) / abs(direct) < mpmath.mpf(1e-35)


def test_slash_translation():
    dl = forms.delta(40).series
    z = (0.2, 1.1)
    t = ((1, 1), (0, 1))
    a = eval_series(dl, z, 150).value
    b = slash_value(dl, 12, t, z, 150).value
    assert abs(a - b) / abs(a) < mpmath.mpf(1e-30)


def test_slash_guards():
    dl = forms.delta(10).series
    with pytest.raises(ValueError):
        slash_value(dl, 11, ((1, 0), (0, 1)), (0, 1))
    with pytest.raises(ValueError):
        slash_value(dl, 12, ((1, 0), (0, -1)), (0, 1))


def test_hecke_value_routes_agree():
    # the two routes share no code past eval_series, so their agreement
    # checks the operator's coefficient formula against the coset sum
    dl = forms.delta(40).series
    out = hecke_value_agreement(dl, 12, 2, (0.2, 1.3), 200)
    assert float(out["rel_diff"]) < 1e-50
    # the coset route evaluates j at height 1.4/3, so it needs a longer
    # window than the series route to push the truncation error down
    jf = forms.j_function(150).series
    out = hecke_value_agreement(jf, 0, 3, (0.1, 1.4), 200)
    assert float(out["rel_diff"]) < 1e-50
    # eigenform shortcut as an extra cross-check: delta|T_2 = -24 delta
    with mpmath.workprec(240):
        direct = eval_series(dl, (0.2, 1.3), 200).value
        image = hecke_value(dl, 12, 2, (0.2, 1.3), 200).value
        assert abs(image + 24 * direct) / abs(direct) < mpmath.mpf(1e-40)


# -- special constants -------------------------------------------------------

def test_alpha_constant():
    a = alpha_constant(200)
    assert abs(a - mpmath.mpf("1187.006489")) < 1e-6
    # stable under more precision
    b = alpha_constant(300)
    assert abs(a - b) < mpmath.mpf(10) ** -50


def test_cm_point_and_checks():
    with mpmath.workprec(120):
        z = cm_point()
        assert abs(z - mpmath.mpc(0.5, mpmath.sqrt(7) / 2)) < 1e-20
    out = cm_checks()
    assert out["pass"]
    assert out["omega"] > 0
    assert float(out["e4_rel"]) <= 1e-20
    assert float(out["e6_rel"]) <= 1e-20
    assert float(out["j_rel"]) <= 1e-20


def test_elliptic_order():
    assert elliptic_order(1j) == 2
    assert elliptic_order(3 + 1j) == 2
    assert elliptic_order(-1 / (1j + 4)) == 2
    assert elliptic_order(complex(0.5, math.sqrt(3) / 2)) == 3
    assert elliptic_order(complex(-0.5, math.sqrt(3) / 2)) == 3
    assert elliptic_order(0.3 + 1.7j) == 1
    assert elliptic_order(2j) == 1


@pytest.mark.parametrize("bits", [53, 80, 200, 512])
def test_elliptic_order_within_rounding(bits):
    # a point 1e-10 or 1e-6 off i is not i; binary64 centers that round
    # to i or rho, or reduce to i, keep their order and their vanishing sums
    assert elliptic_order(complex(1e-10, 1)) == elliptic_order(complex(1e-6, 1)) == 1
    assert elliptic_order(complex(0.5, 0.5)) == 2
    for center, k, ell in ((HPoint("0", "1"), 3, 0), (HPoint("0.5", "0.5"), 3, 0),
                           (HPoint("-0.5", "0.8660254037844386"), 3, -1)):
        r = psi_truncated(PoincareSeed(k, ell, center), HPoint("0.2", "1.3"), 2, bits)
        assert r.value == 0 and r.tail_note.startswith("VanishingSeries"), (center, bits)
    r = psi_truncated(PoincareSeed(3, 0, HPoint("1e-10", "1")), HPoint("0.2", "1.3"), 2, bits)
    assert r.tail_note.startswith("tail estimate") and r.value != 0


# -- the elliptic-point eigenvalue identity ----------------------------------

def test_script_g_matches_composed_route():
    g = build("g5", 60).series
    res = script_g_coefficient(g, 3, 1, mpmath.mpc(0, 1), 2, 150)
    direct = hecke_value(g, -4, 2, (0, 1), 150).value
    with mpmath.workprec(170):
        assert abs(res.value - 2 ** 5 * direct) / abs(res.value) < mpmath.mpf(1e-40)


def test_verify_f6i_eigen_small():
    out = verify_f6i_eigen(5, n_max=2, bits=150)
    assert out["pass"]
    assert out["max_rel"] < 1e-20
    out7 = verify_f6i_eigen(7, n_max=1, bits=120)
    assert out7["pass"]
    assert out7["max_rel"] < 1e-20


def test_verify_f6i_eigen_negative_control(monkeypatch):
    # perturbing the eigenvalue moves the residual from rounding level to
    # the size of the f6i coefficients relative to the huge lhs ones; the
    # effect is small in relative terms but far above the true residual
    clean = verify_f6i_eigen(5, n_max=2, bits=150)
    sigma = forms.sigma
    monkeypatch.setattr(forms, "sigma", lambda r, n: sigma(r, n) + 1)
    shifted = verify_f6i_eigen(5, n_max=2, bits=150)
    assert shifted["max_rel"] > 1e-12
    assert shifted["max_rel"] > 1e6 * clean["max_rel"]


def test_verify_f6i_eigen_guard():
    with pytest.raises(ValueError):
        verify_f6i_eigen(4)


# -- truncated Poincare sums --------------------------------------------------

def test_psi_vanishing_guard():
    # ell + k = 3 is odd while the center i has elliptic order 2
    seed = PoincareSeed(3, 0, HPoint(0, 1))
    r = psi_truncated(seed, HPoint(0, 2), bound=8)
    assert r.value == 0
    assert r.tail_note.startswith("VanishingSeries")


@pytest.mark.parametrize("bits", [53, 120])
def test_psi_pole_guard(bits):
    # 53 bits sums complex values, 120 bits fixed-point values, in the same loop
    seed = PoincareSeed(3, -1, HPoint(0, 1))
    with pytest.raises(RegionGuard):
        psi_truncated(seed, HPoint(0, 1), bound=6, bits=bits)


def test_psi_machine_vs_mp():
    seed = PoincareSeed(3, -1, HPoint(0, 1))
    m53 = psi_truncated(seed, HPoint(0, 2), bound=6, bits=53)
    mp = psi_truncated(seed, HPoint(0, 2), bound=6, bits=120)
    rel = abs(complex(m53.value) - complex(mp.value)) / abs(complex(mp.value))
    assert rel < 1e-12
    assert isinstance(m53.value, complex)


def _psi_binary64_half_doubled(k, ell, center, z, bound):
    """The 53-bit truncated sum written out: the rows (c, d) with c < 0,
    then (0, -1), in the loop order and binary64 operations of
    psi_truncated, and their total doubled.  With u = w - center and
    v = w - conj(center) from u0 = w0 - center and v0 = w0 - conj(center),
    each summand is base u^ell / v^(2k + ell), one quotient, for ell < 0
    base / ((u v)^-ell v^(2k + 2 ell)), and each row is summed on its own.
    A row whose sum raises or is not finite is summed again as
    base v^-2k x^ell with x = u / v, refused as a pole where x ** ell
    fails."""
    zz, zc = complex(*center), complex(*z)
    zzbar = zz.conjugate()
    m, w2k = 2 * k + ell, -2 * k
    rows = [(c, d) for c in range(-bound, 0) for d in range(-bound, bound + 1)
            if math.gcd(c, d) == 1] + [(0, -1)]
    translates = range(-bound, bound + 1)
    total = 0j
    for c, d in rows:
        a, b = numeval._bezout(c, d)
        denom = c * zc + d
        base = denom ** w2k
        w0 = (a * zc + b) / denom
        u0, v0 = w0 - zz, w0 - zzbar
        row = 0j
        try:
            for t in translates:
                u, v = u0 + t, v0 + t
                if ell == 0:
                    row += base / v ** m
                elif ell > 0:
                    row += base * u ** ell / v ** m
                else:
                    row += base / ((u * v) ** -ell * v ** (m + ell))
        except (OverflowError, ZeroDivisionError):
            row = complex("inf")
        if not cmath.isfinite(row):
            row = 0j
            for t in translates:
                u, v = u0 + t, v0 + t
                x = u / v
                if ell < 0 and x == 0:
                    raise RegionGuard(
                        "evaluation point lies in the orbit of the center (pole of "
                        "the kernel): w = center at row (%d, %d), t = %d" % (c, d, t))
                try:
                    power = x ** ell
                except (OverflowError, ZeroDivisionError):
                    raise RegionGuard(
                        "evaluation point lies within rounding of the orbit of the center "
                        "(pole of the kernel): w near center at row (%d, %d), t = %d"
                        % (c, d, t)) from None
                row += base * v ** w2k * power
        total += row
    return total + total


_RHO = (-0.5, math.sqrt(3) / 2)
_coord = st.floats(-0.5, 0.5)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 4), ell=st.integers(-3, 2),
       center=st.sampled_from([(0.0, 1.0), _RHO, (0.5, _RHO[1])])
       | st.tuples(_coord | st.just(0.0), st.floats(0.8, 2)),
       z=st.tuples(_coord | st.just(0.0), st.floats(0.5, 2.5)), bound=st.integers(1, 12))
# bound 1: the rows (-1, -1..1) and (0, -1), mirroring the other four
@example(k=2, ell=2, center=(-0.31, 1.17), z=(0.0, 1.3), bound=1)
@example(k=3, ell=-1, center=(0.0, 1.0), z=(0.0, 2.0), bound=12)
# exact poles: z at i is met first on row (-1, 0), a generic z on (0, -1)
@example(k=3, ell=-1, center=(0.0, 1.0), z=(0.0, 1.0), bound=4)
@example(k=4, ell=-2, center=(0.25, 1.5), z=(0.25, 1.5), bound=3)
# z within 1e-157 of the center: x ** ell overflows, or x ** -ell
# underflows to 0 and the reciprocal divides by zero; both are refused
@example(k=2, ell=-3, center=(0.0, 0.875), z=(5.088552706072287e-158, 0.875), bound=1)
@example(k=2, ell=-2, center=(0.0, 1.0), z=(5.088552706072287e-158, 1.0), bound=1)
# (u v) ** -ell is subnormal, so the quotient is inf without an exception; the
# row is summed again, and x ** ell fails there, so these are refused too
@example(k=4, ell=-2, center=(0.0, 1.0), z=(5e-158, 1.0), bound=1)
@example(k=3, ell=-1, center=(0.0, 1.0), z=(1e-312, 1.0), bound=1)
@example(k=2, ell=-2, center=(0.0, 1.17), z=(1e-157, 1.17), bound=2)
# 2k up to 100 is raised by repeated squaring, above it by CPython's polar
# power
@example(k=50, ell=2, center=(-0.31, 1.17), z=(0.2, 1.3), bound=3)
@example(k=51, ell=2, center=(-0.31, 1.17), z=(0.2, 1.3), bound=3)
@example(k=51, ell=-1, center=(0.0, 1.0), z=(0.0, 2.0), bound=3)
# the edge of the generated chains: v ** 100 is a chain, v ** 101 is **
@example(k=49, ell=2, center=(-0.31, 1.17), z=(0.2, 1.3), bound=3)
@example(k=50, ell=1, center=(-0.31, 1.17), z=(0.2, 1.3), bound=3)
# ell < -k: v^(2k + 2 ell) has a negative exponent, the reciprocal of a chain
@example(k=3, ell=-4, center=(-0.31, 1.17), z=(0.2, 1.3), bound=4)
@example(k=2, ell=-3, center=(-0.31, 1.17), z=(0.2, 1.3), bound=4)
# each loop shape near the pole: ell = 1, ell = -1, ell = -k (2k + 2 ell = 0)
# and ell = -2 with 2k + 2 ell > 0, with z within 1e-157 and 1e-312 of the
# center, where (u v)^-ell is subnormal (ell = -1 at 1e-312, ell = -2 at
# 1e-157) or 0
@example(k=3, ell=1, center=(0.0, 1.17), z=(1e-157, 1.17), bound=2)
@example(k=3, ell=1, center=(0.0, 1.17), z=(1e-312, 1.17), bound=1)
@example(k=3, ell=-1, center=(0.0, 1.17), z=(1e-157, 1.17), bound=2)
@example(k=2, ell=-1, center=(0.0, 1.17), z=(1e-312, 1.17), bound=1)
@example(k=3, ell=-3, center=(0.0, 1.17), z=(1e-157, 1.17), bound=2)
@example(k=4, ell=-4, center=(0.0, 1.17), z=(1e-312, 1.17), bound=1)
@example(k=3, ell=-2, center=(0.0, 1.17), z=(1e-157, 1.17), bound=2)
@example(k=4, ell=-2, center=(0.0, 1.17), z=(1e-312, 1.17), bound=1)
def test_psi_binary64_matches_half_rows_doubled(k, ell, center, z, bound):
    # the total, its bound and note, and any error a summand raises, with
    # its message, are those of the written-out half sum
    assume((k + ell) % elliptic_order(complex(*center)) == 0)
    try:
        want = _psi_binary64_half_doubled(k, ell, center, z, bound)
    except (RegionGuard, ArithmeticError) as exc:
        with pytest.raises(type(exc)) as got:
            psi_truncated(PoincareSeed(k, ell, center), z, bound, 53)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    res = psi_truncated(PoincareSeed(k, ell, center), z, bound, 53)
    assert res.value == want and repr(res.value) == repr(want)
    assert res.err_bound == mpmath.mpf(bound) ** (1 - 2 * k)
    assert res.tail_note == "tail estimate O(bound^%d), not certified" % (1 - 2 * k)


def _chain_power(n):
    """x ** n through the statements and expression numeval._chain writes."""
    lines, expr = numeval._chain("x", n)
    scope = {}
    exec("def power(x):\n%s    return %s\n" % ("".join("    %s\n" % line for line in lines), expr),
         scope)
    return scope["power"]


_finite = {"allow_nan": False, "allow_infinity": False}


# |x| <= 4 keeps most powers finite; the unbounded draws reach the range ends
@settings(max_examples=400, deadline=None)
@given(n=st.integers(-100, 100),
       x=st.complex_numbers(max_magnitude=4, **_finite) | st.complex_numbers(**_finite))
@example(n=100, x=complex(1.0000001, 0.5))
@example(n=-100, x=complex(-0.7, 0.3))
@example(n=64, x=complex(-0.0, -1.0))
def test_chain_matches_complex_power(n, x):
    # where x ** n is finite, the chain is the same value bit for bit, but for
    # the sign of a zero part: CPython's product starts at 1 + 0j
    try:
        want = x ** n
    except (OverflowError, ZeroDivisionError):
        return
    if not cmath.isfinite(want):
        return
    got = _chain_power(n)(x)
    assert got == want
    assert repr(got) == repr(want) or 0 in (want.real, want.imag), (got, want)


def test_chain_leaves_large_exponents_to_power():
    assert numeval._chain("v", 100)[1] == "(v4 * v32 * v64)"
    assert numeval._chain("v", 101) == ([], "v ** 101")
    assert numeval._chain("v", -101) == ([], "v ** -101")
    assert numeval._chain("v", 0) == ([], "v ** 0")
    assert numeval._chain("v", 6) == (["v2 = v * v", "v4 = v2 * v2"], "(v2 * v4)")
    assert numeval._chain("v", -1) == ([], "(1 / v)")


def test_psi_two_variable_check_builds_its_kernel_once():
    # one check at n = 2 takes six psi sums at k = 3, ell = -1, three at the
    # seed's center and three at rescaled centers; the generated kernel is
    # built on the first and found on the other five
    numeval._binary64_kernel.cache_clear()
    psi_two_variable_check(3, -1, (0, 1), (0, 1.5), 2, bound=3)
    info = numeval._binary64_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 5, 1)


@pytest.mark.parametrize("bits", [53, 200])
@pytest.mark.parametrize("bound", [1, 2, 5])
def test_psi_computes_each_pair_of_rows_once(monkeypatch, bits, bound):
    # the route kernel sums each computed row once: those with c < 0, and (0, -1)
    calls = []
    for name in ("_binary64_row", "_fixed_row"):
        def counting(*args, kernel=getattr(numeval, name)):
            row = kernel(*args)
            return lambda base, w0, c, d: calls.append((c, d)) or row(base, w0, c, d)
        monkeypatch.setattr(numeval, name, counting)
    rows = sum(1 for c in range(-bound, 0) for d in range(-bound, bound + 1)
               if math.gcd(c, d) == 1)
    for ell in (-1, 1):
        del calls[:]
        psi_truncated(PoincareSeed(3, ell, HPoint(0, 1)), HPoint("0.1", "1.4"), bound, bits)
        assert len(calls) == rows + 1, (ell, calls)


def test_binary64_row_sums_again_where_the_kernel_overflows():
    # at ell = -100, (u v)^100 overflows in the generated kernel, so the row
    # is summed again as base v^-2k x^ell; checked against mpmath at 160 bits
    k, ell, bound, center, z = 3, -100, 40, complex(0.1, 1.3), complex(0.2, 0.9)
    c, d, a, b = numeval._rows(bound)[-4:]
    assert (c, d) == (0, -1)
    base, w0 = (c * z + d) ** (-2 * k), (a * z + b) / (c * z + d)
    ts = tuple(map(complex, range(-bound, bound + 1)))
    fast = numeval._binary64_kernel(k, ell)(base, w0 - center, w0 - center.conjugate(), ts)
    assert not cmath.isfinite(fast)
    got = numeval._binary64_row(k, ell, center, bound)(base, w0, c, d)
    with mpmath.workprec(160):
        terms = []
        for t in range(-bound, bound + 1):
            w = mpmath.mpc(w0) + t
            u, v = w - mpmath.mpc(center), w - mpmath.mpc(center.conjugate())
            terms.append(mpmath.mpc(base) * v ** (-2 * k) * (u / v) ** ell)
        err = abs(mpmath.mpc(got) - mpmath.fsum(terms))
        assert err <= (abs(ell) + 2 * k + 8) * 2.0 ** -53 * mpmath.fsum(map(abs, terms))


def test_psi_rows_table_matches_enumeration():
    # the memoized table holds the rows (c, d, a, b) of the gcd loop, in its
    # order, one after another
    for bound in range(1, 41):
        rows = [(c, d) for c in range(-bound, 0) for d in range(-bound, bound + 1)
                if math.gcd(c, d) == 1] + [(0, -1)]
        want = [v for c, d in rows for v in (c, d) + numeval._bezout(c, d)]
        assert list(numeval._rows(bound)) == want


def _psi_direct(k, ell, center, z, bound, prec):
    """The truncated sum re-summed term by term in mpc at prec bits: its
    value, the sum of the summands' magnitudes, and the least |w - center|
    over the translates w (a pole of the kernel when ell < 0)."""
    with mpmath.workprec(prec):
        zz, zc = mpmath.mpc(*center), mpmath.mpc(*z)
        value, scale, closest = mpmath.mpc(0), mpmath.mpf(0), mpmath.inf
        for c in range(-bound, bound + 1):
            for d in range(-bound, bound + 1):
                if math.gcd(c, d) != 1:
                    continue
                # the top row fixes which translates the truncation keeps
                a, b = numeval._bezout(c, d)
                for t in range(-bound, bound + 1):
                    w = (a * zc + b) / (c * zc + d) + t
                    closest = min(closest, abs(w - zz))
                    if w == zz and ell < 0:
                        continue
                    wbar = w - mpmath.conj(zz)
                    term = ((c * zc + d) * wbar) ** (-2 * k) * ((w - zz) / wbar) ** ell
                    value += term
                    scale += abs(term)
        return value, scale, closest


@settings(max_examples=40, deadline=None)
@given(cx=st.floats(-0.5, 0.5), cy=st.floats(0.8, 2), zx=st.floats(-0.5, 0.5),
       zy=st.floats(0.8, 2), k=st.integers(2, 4), ell=st.integers(-3, 2),
       bits=st.sampled_from([54, 80, 200, 512]), bound=st.integers(1, 3))
@example(cx=-0.31, cy=1.17, zx=-0.21, zy=1.37, k=3, ell=-1, bits=54, bound=3)
@example(cx=-0.5, cy=math.sqrt(3) / 2, zx=0.4, zy=0.8, k=4, ell=-1, bits=512, bound=2)
@example(cx=0.0, cy=1.0, zx=0.5, zy=2.0, k=2, ell=2, bits=80, bound=1)
@example(cx=0.0, cy=1.0, zx=0.0, zy=1.0, k=2, ell=0, bits=54, bound=1)
@example(cx=0.25, cy=1.5, zx=0.25, zy=1.5, k=3, ell=-3, bits=200, bound=2)
# z within 2^-126 and 2^-149 of the center: summands near the pole
@example(cx=0.0, cy=0.875, zx=2.0 ** -126, zy=0.875, k=2, ell=-1, bits=80, bound=1)
@example(cx=0.0, cy=1.0, zx=2.0 ** -149, zy=1.0, k=2, ell=-2, bits=200, bound=1)
def test_psi_fixed_point_matches_mpc(cx, cy, zx, zy, k, ell, bits, bound):
    # the allowance of the benchmark's Poincare oracle: 2^-bits times the
    # sum of the summands' magnitudes, against a re-summation at
    # 2 (bits + 64): a translate w kept off the pole by 2^-bits or more
    # then has w - center to bits + 64 bits, relative
    assume((k + ell) % elliptic_order(complex(cx, cy)) == 0)
    value, scale, closest = _psi_direct(k, ell, (cx, cy), (zx, zy), bound, 2 * (bits + 64))
    try:
        res = psi_truncated(PoincareSeed(k, ell, (cx, cy)), (zx, zy), bound, bits)
    except RegionGuard:
        # only a translate that meets the center to within the precision
        assert ell < 0 and closest < mpmath.mpf(2) ** -bits
        return
    assert isinstance(res.value, mpmath.mpc)
    with mpmath.workprec(bits + 64):
        assert abs(res.value - value) <= mpmath.mpf(2) ** -bits * scale


def _psi_fixed_half_doubled(k, ell, center, z, bound, bits):
    """The fixed-point truncated sum written out in _Fixed operations, at
    the unit psi_truncated plans: the rows of _psi_binary64_half_doubled,
    each summand base (w - conj(center))^-2k x^ell with
    x = (w - center) / (w - conj(center)), or for ell < 0 the summand
    _psi_near_pole retakes at a finer unit, and the total doubled."""
    frac = bits + 30 + 16 + ((2 * bound + 1) ** 3).bit_length()
    fixed = numeval._fixed_type(frac)
    rows = [(c, d) for c in range(-bound, 0) for d in range(-bound, bound + 1)
            if math.gcd(c, d) == 1] + [(0, -1)]
    with mpmath.workprec(bits + 30):
        cz, pz = mpmath.mpc(*center), mpmath.mpc(*z)
        zz, zc = fixed.from_mpc(cz), fixed.from_mpc(pz)
        total = fixed(0)
        for c, d in rows:
            a, b = numeval._bezout(c, d)
            denom = c * zc + d
            base = denom ** (-2 * k)
            w0 = (a * zc + b) / denom
            for t in range(-bound, bound + 1):
                w = w0 + t
                dzbar = w - zz.conjugate()
                x = (w - zz) / dzbar
                term = None
                if ell < 0:
                    term = numeval._psi_near_pole(k, ell, cz, pz, frac, bits, x, c, d, t)
                total += base * dzbar ** (-2 * k) * x ** ell if term is None else term
        return (total + total).to_mpc()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), ell=st.integers(-4, 3),
       center=st.sampled_from([(0.0, 1.0), _RHO, (-0.31, 1.17)])
       | st.tuples(_coord, st.floats(0.8, 2)),
       z=st.tuples(_coord, st.floats(0.5, 2.5)), bits=st.sampled_from([54, 80, 200]),
       bound=st.integers(1, 4))
# z within 2^-126 and 2^-149 of the center: _psi_near_pole retakes the summand
@example(k=2, ell=-1, center=(0.0, 0.875), z=(2.0 ** -126, 0.875), bits=80, bound=1)
@example(k=2, ell=-2, center=(0.0, 1.0), z=(2.0 ** -149, 1.0), bits=200, bound=2)
@example(k=3, ell=-3, center=(0.25, 1.5), z=(0.25 + 2.0 ** -60, 1.5), bits=54, bound=3)
# exact poles, refused at the row and t of the loop
@example(k=3, ell=-1, center=(0.0, 1.0), z=(0.0, 1.0), bits=200, bound=4)
@example(k=4, ell=-2, center=(0.25, 1.5), z=(0.25, 1.5), bits=120, bound=2)
def test_psi_fixed_row_matches_fixed_loop(k, ell, center, z, bits, bound):
    # the fixed-point kernel's total is that of the _Fixed loop, bit for bit
    assume((k + ell) % elliptic_order(complex(*center)) == 0)
    seed = PoincareSeed(k, ell, center)
    try:
        want = _psi_fixed_half_doubled(k, ell, center, z, bound, bits)
    except RegionGuard as exc:
        with pytest.raises(RegionGuard) as got:
            psi_truncated(seed, z, bound, bits)
        assert str(got.value) == str(exc)
        return
    res = psi_truncated(seed, z, bound, bits)
    assert res.value == want and repr(res.value) == repr(want)


def test_fixed_point_scalar():
    frac = 100
    fixed = numeval._fixed_type(frac)
    unit = 2 ** frac
    with mpmath.workprec(64):
        x = fixed.from_mpc(mpmath.mpc(-0.75, 0.5))
        y = fixed.from_mpc(mpmath.mpc(0.375, -1.25))
    # the sign of each part survives the conversion, and values are exact
    assert (x.re, x.im) == (-3 * unit // 4, unit // 2)
    assert (y.re, y.im) == (3 * unit // 8, -5 * unit // 4)
    # zero and the pole test
    assert fixed(0) == 0 and x - x == 0 and (x - x).im == 0
    assert not x == 0 and not fixed(1) == 0 and not fixed(0, 1) == 0
    assert x ** 0 == 1 and fixed(0) + 2 == 2 and fixed(0) - 2 == -2
    # reciprocal: 1/x = conj(x)/|x|^2 = (-12 - 8i)/13, one integer division
    r = x ** -1
    assert abs(r.re - (-12 * unit) // 13) <= 1 and abs(r.im - (-8 * unit) // 13) <= 1
    # negative powers through the reciprocal, quotients, products
    with mpmath.workprec(200):
        xv = mpmath.mpc(-0.75, 0.5)
        yv = mpmath.mpc(0.375, -1.25)
        for got, want in [(x ** -3, xv ** -3), (y ** -6, yv ** -6), (x ** 5, xv ** 5),
                          (x / y, xv / yv), (x * y, xv * yv), (x.conjugate(), xv.conjugate()),
                          (2 * x - 1, 2 * xv - 1)]:
            assert abs(got.to_mpc() - want) <= 64 * mpmath.mpf(2) ** -frac, (got.to_mpc(), want)
    # int parts round-trip: to_mpc rounds at the working precision
    with mpmath.workprec(frac + 10):
        back = fixed.from_mpc(x.to_mpc())
        assert (back.re, back.im) == (x.re, x.im)


def test_psi_section_small_bound():
    out = psi_section_check(bound=16, tol=5e-3)
    assert out["pass"], out["rel"]
    # truncation error shrinks with the bound
    wider = psi_section_check(bound=24, tol=5e-3)
    assert wider["rel"] < out["rel"]


def test_psi_two_variable_small_bound():
    out = psi_two_variable_check(3, -1, (0, 1), (0, 1.5), 2, bound=10, tol=1e-3)
    assert out["pass"], out


def test_eval_result_json_keeps_precision():
    # serialization must not round the 120-bit value through the ambient
    # 53-bit context: 40 digits of the closed form survive into the string
    with mpmath.workprec(200):
        truth = mpmath.gamma(mpmath.mpf(1) / 4) ** 24 / (2 ** 24 * mpmath.pi ** 18)
    obj = eval_series(forms.delta(40).series, (0, 1), 120).to_json_obj()
    with mpmath.workprec(200):
        got = mpmath.mpf(obj["value_re"])
        assert abs(got - truth) / truth < mpmath.mpf(1e-35)
