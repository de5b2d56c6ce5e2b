"""End-to-end acceptance battery.

One test per shipped guarantee, each printing a single pass or fail line
(visible under pytest -s, or in the failure report otherwise).  Exact
checks carry zero tolerance; numeric checks pin the tolerance next to the
assertion.  None of these may be loosened without a matching change to the
library's documented contract.
"""

import random
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from merohecke import forms, linalg, meroforms
from merohecke.forms import CUSPIDAL, HOLOMORPHIC, ModularForm
from merohecke.hecke import t_op, t_op_commutes_check
from merohecke.numeval import (
    HPoint,
    PoincareSeed,
    alpha_constant,
    cm_checks,
    psi_section_check,
    psi_truncated,
    psi_two_variable_check,
    verify_f6i_eigen,
)
from merohecke.qseries import LaurentSeries, compare
from merohecke.quotient import (
    MOD_M,
    MOD_S,
    class_of,
    eigen_witness,
    hecke_on_principal_part,
    quotient_dimension,
    theorem_check,
)
from merohecke.whbasis import (
    ObstructionWitness,
    PrincipalPart,
    bol_image_membership,
    j_polynomial_decompose,
    obstruction,
    solve_principal_part,
    wh_slice_basis,
)


def _line(num, slug, ok, detail=""):
    msg = "acceptance %02d %-26s %s" % (num, slug, "PASS" if ok else "FAIL")
    if detail:
        msg += "  " + detail
    print(msg)
    assert ok, msg


# every window below was checked against two independent routes before
# being frozen; exact integers, zero tolerance
PINNED_WINDOWS = {
    "f6iinfty": {-1: 1, 0: 0, 1: -73764, 2: -86241280},
    "f6i": {1: 1, 2: 480, 3: 258804, 4: 138542080},
    "F7": {0: 1, 1: 4095, 2: 98280, 3: 17805060},
    "G": {2: 1, 3: -4143, 4: 16868385, 5: -68686682635},
    "g": {-2: 1, -1: 24, 0: -196560, 1: -47709536, 2: -3688365156},
    "g5": {-5: 1, -1: -3126, 0: 0, 1: 26994415788736,
           2: 519615094283304960},
    "g7": {-7: 1, -1: -16808, 0: 0, 1: 10625045828793993,
           2: 1689691172521357344768},
}

E8_OVER_DELTA = {-1: 1, 0: 504, 1: 73764, 2: 2695040}


def test_criterion_01_exact_expansions():
    bad = []
    for name, want in PINNED_WINDOWS.items():
        s = meroforms.build(name, 8).series
        for n, c in want.items():
            if s.coefficient(n) != c:
                bad.append("%s[%d]" % (name, n))
    e8d = meroforms.build_expression("E8/delta", 8)
    for n, c in E8_OVER_DELTA.items():
        if e8d.series.coefficient(n) != c:
            bad.append("E8/delta[%d]" % n)
    _line(1, "exact-expansions", not bad, ",".join(bad))


def test_criterion_02_bol_derivative_image():
    # the 5-fold derivative of the q^-1 weight -4 basis form is minus the
    # weight 6 seed, coefficient by coefficient out to q^100
    p = 101
    d5 = meroforms.build_expression("E8/delta", p).series.d_power(5)
    neg = meroforms.build("f6iinfty", p).series.scale(-1)
    ok = d5.prec >= p and neg.prec >= p and bool(compare(d5, neg))
    _line(2, "bol-derivative-image", ok,
          "checked through q^%d" % (min(d5.prec, neg.prec) - 1))


def test_criterion_03_hecke_image_membership():
    # f|T_m - sigma_5(m) f lands in the derivative image of the
    # zero-constant-term space for m in {2,3,5,7}: explicit witness, then
    # an independent re-application of the derivative over the full window
    p = 120
    f = meroforms.build("f6iinfty", p).series
    bad = []
    for m in (2, 3, 5, 7):
        image = t_op(f, 6, m)
        h = image.sub(f.scale(forms.sigma(5, m)).truncate(image.prec))
        rep = bol_image_membership(ModularForm(6, h), 3, True)
        if not rep.ok or rep.window[1] != h.prec:
            bad.append("m=%d" % m)
            continue
        if not compare(rep.witness.series.d_power(5), h):
            bad.append("m=%d redo" % m)
    # negative control: the seed itself is an image only with the constant
    # term left free, and there the witness is exactly the q^-1 basis form
    neg = ModularForm(6, f.scale(-1))
    strict = bol_image_membership(neg, 3, True)
    relaxed = bol_image_membership(neg, 3, False)
    e8d = meroforms.build_expression("E8/delta", p)
    if strict.ok or strict.obstruction is None \
            or list(strict.obstruction.vector) != [-504]:
        bad.append("strict-control")
    if not relaxed.ok or not compare(relaxed.witness.series, e8d.series):
        bad.append("relaxed-control")
    _line(3, "hecke-image-membership", not bad, ",".join(bad))


def test_criterion_04_principal_part_solver():
    # prescribing q^-5 - 3126 q^-1 (resp. q^-7 - 16808 q^-1) at weight -4
    # must return the named construction, a j-polynomial multiple of the
    # q^-1 basis form with these exact coefficients
    p = 24
    seed = meroforms.build_expression("E8/delta", p)
    want = {
        5: (-3126, "g5",
            [114237825024, -1425282400, 3838860, -3480, 1]),
        7: (-16808, "g7",
            [12317318339088384, -411526489432464, 2925506969154,
             -7736486240, 9176868, -4968, 1]),
    }
    bad = []
    for pole, (cm1, name, poly) in want.items():
        pp = PrincipalPart({pole: Fraction(1), 1: Fraction(cm1)}, 0)
        sol = solve_principal_part(-4, pp, True, p)
        if isinstance(sol, ObstructionWitness):
            bad.append("q^-%d obstructed" % pole)
            continue
        if j_polynomial_decompose(sol, seed) != poly:
            bad.append("q^-%d poly" % pole)
        if not compare(sol.series, meroforms.build(name, p).series):
            bad.append("q^-%d named" % pole)
    _line(4, "principal-part-solver", not bad, ",".join(bad))


def test_criterion_05_closed_form_identities():
    ids = ("gT2", "gT3", "G-hecke", "jpoly-eval", "F-over-Delta",
           "psi-fourier-consistency")
    bad = [i for i in ids if not meroforms.verify_identity(i)]
    if linalg.poly_eval(meroforms.GT2_POLY, Fraction(-3375)) != 16868409:
        bad.append("P2(-3375)")
    if linalg.poly_eval(meroforms.GT3_POLY, Fraction(-3375)) != 279687514914333:
        bad.append("P3(-3375)")
    _line(5, "closed-form-identities", not bad, ",".join(bad))


def test_criterion_06_quotient_charpoly_grid():
    # scaled quotient matrices carry the exact characteristic polynomials
    # of T_m on the dual spaces, across every weight with content on the
    # desk, including the two-dimensional weight 24
    bad = []
    for w2k in range(4, 30, 2):
        for kind in (MOD_M, MOD_S):
            for m in (2, 3, 5):
                if not theorem_check(w2k, kind, m):
                    bad.append("2k=%d %s m=%d" % (w2k, kind, m))
    if quotient_dimension(24, MOD_M) != 2:
        bad.append("dim-24")
    _line(6, "quotient-charpoly-grid", not bad, ",".join(bad[:4]))


def test_criterion_07_classes_transform():
    # the class of (q^-1 pole)|T_n is n^(1-2k) times the class of the
    # q^-n pole, exactly, for n up to 12 in both quotients
    pole1 = PrincipalPart({1: Fraction(1)}, 0)
    bad = []
    for w2k in (12, 24):
        for kind in (MOD_M, MOD_S):
            for n in range(1, 13):
                img = hecke_on_principal_part(pole1, 2 - w2k, n)
                lhs = class_of(img, w2k, kind)
                rhs = class_of(PrincipalPart({n: Fraction(1)}, 0), w2k, kind)
                if lhs != rhs.scale(Fraction(n) ** (1 - w2k)):
                    bad.append("2k=%d %s n=%d" % (w2k, kind, n))
    _line(7, "classes-transform", not bad, ",".join(bad[:4]))


def test_criterion_08_eigenvalue_witnesses():
    bad = []
    g = meroforms.build("g", 24)
    w2 = eigen_witness(12, 2, -24, precision=20)
    if isinstance(w2, ObstructionWitness) or not compare(
            w2.series, (g * Fraction(1, 2048)).series):
        bad.append("T2")
    w3 = eigen_witness(12, 3, 252, precision=24)
    if isinstance(w3, ObstructionWitness) or j_polynomial_decompose(
            w3 * Fraction(3 ** 11), g) != [-768, 1]:
        bad.append("T3")
    _line(8, "eigenvalue-witnesses", not bad, ",".join(bad))


def test_criterion_09_numeric_evaluation():
    bad = []
    a = alpha_constant(200)
    with mpmath.workprec(230):
        if abs(a - mpmath.mpf("1187.006489")) >= mpmath.mpf("1e-6"):
            bad.append("alpha")
    if not cm_checks(tol=1e-20)["pass"]:
        bad.append("cm-point")
    for m in (5, 7):
        rep = verify_f6i_eigen(m, n_max=10, bits=200, tol=1e-10)
        if not rep["pass"]:
            bad.append("eigen-%d rel=%.1e" % (m, rep["max_rel"]))
    _line(9, "numeric-evaluation", not bad, ",".join(bad))


def test_criterion_10_poincare_sums():
    bad = []
    sec = psi_section_check(bound=40)   # tol 1e-3
    if not sec["pass"]:
        bad.append("section rel=%.1e" % sec["rel"])
    # z = 1.5i keeps the n=2 rescaled centers off the pole orbit of the
    # evaluation point; 2i is safe for n=3
    two = psi_two_variable_check(3, -1, (0, 1), (0, 1.5), 2, bound=40)
    three = psi_two_variable_check(3, -1, (0, 1), (0, 2), 3, bound=40)
    for n, rep in ((2, two), (3, three)):
        if not rep["pass"]:                  # tol 1e-2
            bad.append("two-var n=%d rel=%.1e" % (n, rep["rel"]))
    guard = psi_truncated(PoincareSeed(3, 0, HPoint(0, 1)),
                          HPoint(0.3, 1.7), 10)
    if guard.value != 0 or not guard.tail_note.startswith("VanishingSeries"):
        bad.append("vanishing-guard")
    _line(10, "poincare-sums", not bad, ",".join(bad))


# criterion 11: five property suites.  Each runs under hypothesis with, as
# @examples, the cases that the loop over one Random(14916) drew for it,
# replayed below in the loop's order so that every suite keeps them.

def _examples(cases):
    """The argument tuples in cases as @examples, in order."""
    def apply(test):
        for args in reversed(cases):
            test = example(*args)(test)
        return test

    return apply


def _fractions(lo, hi, den):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, den))


_DUAL_WEIGHTS = (12, 16, 20, 24, 26)
_FREE_WEIGHTS = (-4, -10, -14)
# the weight -10 part pairs to zero against cusp forms only, so it lives in
# the free-constant route
_TRANSPORT_SEEDS = ((-10, PrincipalPart({2: Fraction(1), 1: Fraction(24)}, 0), False),
                    (-4, PrincipalPart({5: Fraction(1), 1: Fraction(-3126)}, 0), True),
                    (-4, PrincipalPart({7: Fraction(1), 1: Fraction(-16808)}, 0), True))
_PREC_POOL = sorted(PINNED_WINDOWS)


def _seeded_cases():
    """{suite: its argument tuples}, as the seeded loop drew them."""
    rng = random.Random(14916)
    cases = {}
    cases["hecke"] = [
        (2 * rng.randint(-6, 8), rng.randint(-4, 2),
         tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)),
         rng.randint(2, 6), rng.randint(2, 6))
        for _ in range(200)]
    cases["dual"] = []
    for _ in range(40):
        w2k = rng.choice(_DUAL_WEIGHTS)
        poles = rng.sample(range(1, 8), rng.randint(1, 3))
        cases["dual"].append((w2k, PrincipalPart(
            {r: Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for r in poles}, 0)))
    cases["rt-free"] = []
    for _ in range(20):
        w = rng.choice(_FREE_WEIGHTS)
        a = rng.randint(2, 6) + forms.dim_cusp(2 - w)
        scalars = tuple(rng.randint(-5, 5) for _ in wh_slice_basis(w, a, 36).elements)
        cases["rt-free"].append(((w, a, scalars),))
    cases["rt-transport"] = [(_TRANSPORT_SEEDS[case % 3], rng.randint(2, 7))
                             for case in range(15)]
    cases["prec"] = [(_PREC_POOL[case % len(_PREC_POOL)], rng.randint(2, 5))
                     for case in range(14)]
    return cases


_SEEDED = _seeded_cases()


def _hecke_composition(weight, val, coeffs, m, n):
    """Both orders of T_m T_n agree on the common window, and coprime pairs
    also match the single product-index operator."""
    f = LaurentSeries.from_coeff_map(dict(zip(range(val, val + 12), coeffs)), 48,
                                     valuation=val)
    return [] if t_op_commutes_check(f, weight, m, n) is True else ["hecke"]


def _solvability_duality(w2k, pp):
    """The solver succeeds exactly when the pairing vector vanishes, and
    every solution multiplies against the dual basis into weight 2 with a
    zero constant term."""
    bad = []
    for route, dual in ((True, HOLOMORPHIC), (False, CUSPIDAL)):
        vec = obstruction(2 - w2k, pp, "holomorphic" if route else "cusp")
        sol = solve_principal_part(2 - w2k, pp, route, 40)
        if isinstance(sol, ObstructionWitness):
            if not any(vec):
                bad.append("dual")
            continue
        if any(vec):
            bad.append("dual")
            continue
        for gdual in forms.basis(w2k, dual, 44).elements:
            if (sol * gdual).coefficient(0) != 0:
                bad.append("pair")
    return bad


@st.composite
def _free_case(draw):
    w = draw(st.sampled_from(_FREE_WEIGHTS))
    a = draw(st.integers(2, 6)) + forms.dim_cusp(2 - w)
    size = len(wh_slice_basis(w, a, 36).elements)
    return w, a, tuple(draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size)))


def _round_trip_free(case):
    """Combinations of the echelon slice come back from the solver, free
    constant, bit for bit."""
    w, a, scalars = case
    combo = LaurentSeries.zero(36, valuation=-a)
    for el, c in zip(wh_slice_basis(w, a, 36).elements, scalars, strict=True):
        combo = combo.add(el.series.scale(Fraction(c)))
    sol = solve_principal_part(w, PrincipalPart.from_series(combo), False, 36)
    if isinstance(sol, ObstructionWitness) or not compare(sol.series, combo):
        return ["rt-free"]
    return []


def _round_trip_transport(seed, m):
    """Hecke images of known solvable parts stay solvable in their own route
    and reproduce the requested poles exactly."""
    w, base, zero_constant = seed
    pp = hecke_on_principal_part(base, w, m)
    sol = solve_principal_part(w, pp, zero_constant, 40)
    if isinstance(sol, ObstructionWitness) \
            or PrincipalPart.from_series(sol.series).terms != pp.terms \
            or (zero_constant and sol.coefficient(0) != 0):
        return ["rt-transport"]
    return []


def _precision_soundness(name, m):
    """The same construction at two precisions agrees on the common window,
    before and after a Hecke operator."""
    lo = meroforms.build(name, 20)
    hi = meroforms.build(name, 45)
    bad = [] if compare(lo.series, hi.series) else ["prec"]
    if not compare(t_op(lo.series, lo.weight, m), t_op(hi.series, hi.weight, m)):
        bad.append("prec-t")
    return bad


_SUITES = (("hecke", _hecke_composition), ("dual", _solvability_duality),
           ("rt-free", _round_trip_free), ("rt-transport", _round_trip_transport),
           ("prec", _precision_soundness))


def test_criterion_11_property_suites():
    # every seeded case reaches its check, as in the loop it came from;
    # the tests below run the same cases as @examples among their draws
    assert [len(_SEEDED[suite]) for suite, _ in _SUITES] == [200, 40, 20, 15, 14]
    bad = []
    for suite, check in _SUITES:
        for i, case in enumerate(_SEEDED[suite]):
            label = case[0] if suite == "prec" else i
            bad += ["%s-%s" % (tag, label) for tag in check(*case)]
    _line(11, "property-suites", not bad, ",".join(bad[:6]))


@settings(max_examples=100, deadline=None)
@given(st.integers(-6, 8).map(lambda k: 2 * k), st.integers(-4, 2),
       st.lists(_fractions(-9, 9, 9), min_size=12, max_size=12).map(tuple),
       st.integers(2, 6), st.integers(2, 6))
@_examples(_SEEDED["hecke"])
def test_criterion_11_hecke_composition(weight, val, coeffs, m, n):
    assert not _hecke_composition(weight, val, coeffs, m, n)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_DUAL_WEIGHTS),
       st.dictionaries(st.integers(1, 7), _fractions(-8, 8, 5), min_size=1, max_size=3)
       .map(lambda terms: PrincipalPart(terms, 0)))
@_examples(_SEEDED["dual"])
def test_criterion_11_solvability_duality(w2k, pp):
    assert not _solvability_duality(w2k, pp)


@settings(max_examples=20, deadline=None)
@given(_free_case())
@_examples(_SEEDED["rt-free"])
def test_criterion_11_round_trip_free_constant(case):
    assert not _round_trip_free(case)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_TRANSPORT_SEEDS), st.integers(2, 7))
@_examples(_SEEDED["rt-transport"])
def test_criterion_11_round_trip_transport(seed, m):
    assert not _round_trip_transport(seed, m)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_PREC_POOL), st.integers(2, 5))
@_examples(_SEEDED["prec"])
def test_criterion_11_precision_soundness(name, m):
    assert not _precision_soundness(name, m)
