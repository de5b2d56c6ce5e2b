"""Principal parts, pole-bounded bases, the obstruction pairing, the
solver, j-polynomial decomposition, and derivative-image membership."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from merohecke import forms, meroforms, whbasis
from merohecke.forms import CUSPIDAL, HOLOMORPHIC, ModularForm, delta, j_function
from merohecke.qseries import (InsufficientPrecision, LaurentSeries, PrecisionExceeded, as_coeff,
                               compare)
from merohecke.whbasis import (
    NonUniqueSolution,
    NotPolynomialInJ,
    ObstructionWitness,
    PrincipalPart,
    bol_image_membership,
    j_polynomial_decompose,
    obstruction,
    solve_principal_part,
    wh_slice_basis,
)


# -- principal parts ----------------------------------------------------


def test_principal_part_basics():
    pp = PrincipalPart({2: 1, 1: 24}, constant=-5)
    assert pp.max_pole == 2
    assert pp.coefficient(1) == 24
    assert pp.coefficient(0) == -5
    assert pp.coefficient(7) == 0
    assert not pp.is_zero()
    assert PrincipalPart().is_zero()


def test_principal_part_drops_zeros_rejects_bad_index():
    pp = PrincipalPart({3: 0, 1: 2})
    assert pp.max_pole == 1
    with pytest.raises(ValueError):
        PrincipalPart({0: 1})
    with pytest.raises(ValueError):
        PrincipalPart({-2: 1})


def test_principal_part_series_round_trip():
    pp = PrincipalPart({3: Fraction(1, 2), 1: -4}, constant=9)
    s = pp.to_series(5)
    assert s.coefficient(-3) == Fraction(1, 2)
    assert s.coefficient(0) == 9
    assert s.coefficient(2) == 0
    back = PrincipalPart.from_series(s)
    assert back == pp


def test_principal_part_algebra():
    a = PrincipalPart({1: 2}, 1)
    b = PrincipalPart({2: 1, 1: -2}, 3)
    s = a + b
    assert s.terms == {2: 1}
    assert s.constant == 4
    assert a.scale(3).coefficient(1) == 6


# -- slice bases ----------------------------------------------------------


def test_wh_slice_basis_weight_zero():
    fb = wh_slice_basis(0, 2, 8)
    # d = dim M_24 = 3, leading -2, -1, 0
    assert fb.leading == (-2, -1, 0)
    for i, f in enumerate(fb):
        for e in fb.leading:
            assert f.coefficient(e) == (1 if e == fb.leading[i] else 0)


def test_wh_slice_basis_contains_j_shift():
    # the leading -1 element of the (0, 1) slice is j - 744
    fb = wh_slice_basis(0, 1, 6)
    elem = fb[0]
    j = j_function(6)
    diff = j.series.sub(elem.series).truncate(5)
    assert diff.coefficient(-1) == 0
    assert diff.coefficient(1) == 0
    assert diff.coefficient(0) == 744


def test_wh_slice_basis_negative_weight():
    fb = wh_slice_basis(-10, 2, 6)
    # dim M_14 = 1 so only one element despite pole depth 2
    assert len(fb) == 1
    assert fb.leading == (-2,)
    assert fb[0].weight == -10


def test_wh_slice_basis_deep_slice_window():
    fb = wh_slice_basis(-4, 7, 9)
    assert fb.leading[0] == -7
    for f in fb:
        assert f.series.prec == 9


# -- obstruction pairing ---------------------------------------------------


def test_obstruction_against_delta():
    # weight -10 request q^-r: pairing vector is [tau(r)]
    assert obstruction(-10, PrincipalPart({1: 1}), CUSPIDAL) == [1]
    assert obstruction(-10, PrincipalPart({2: 1}), CUSPIDAL) == [-24]
    assert obstruction(-10, PrincipalPart({2: 1, 1: 24}), CUSPIDAL) == [0]


def test_obstruction_constant_term_pairs_holomorphic():
    # dual M_12 echelon basis: first element has c(0)=1, second is delta
    vec = obstruction(-10, PrincipalPart({}, constant=5), HOLOMORPHIC)
    assert vec == [5, 0]


def test_obstruction_empty_dual():
    # 2 - 0 = 2 has no holomorphic forms
    assert obstruction(0, PrincipalPart({1: 1}), CUSPIDAL) == []


def test_obstruction_rejects_unknown_kind():
    with pytest.raises(ValueError):
        obstruction(0, PrincipalPart({1: 1}), "X")


# -- solver -----------------------------------------------------------------


def test_solve_weight_zero_faber():
    sol = solve_principal_part(0, PrincipalPart({1: 1}), True, 6)
    assert not isinstance(sol, ObstructionWitness)
    # j - 744, classical expansion
    assert sol.coefficient(-1) == 1
    assert sol.coefficient(0) == 0
    assert sol.coefficient(1) == 196884
    assert sol.coefficient(2) == 21493760


def test_solve_matches_named_construction():
    # q^-2 + 24 q^-1 prescribes the weight -10 form built as E4^2 E6 / delta^2
    sol = solve_principal_part(-10, PrincipalPart({2: 1, 1: 24}), False, 10)
    g = meroforms.build("g", 10)
    window, mismatch = compare(sol.series, g.series)
    assert mismatch is None and window == (-3, 10)  # solver window opens at -(max_pole + dim S_12)


def test_solve_reports_obstruction():
    sol = solve_principal_part(-10, PrincipalPart({1: 1}), False, 8)
    assert isinstance(sol, ObstructionWitness)
    assert list(sol.vector) == [1]
    assert sol.dual_kind == CUSPIDAL


def test_solve_s_shriek_requires_zero_constant():
    with pytest.raises(ValueError):
        solve_principal_part(0, PrincipalPart({1: 1}, constant=3), True, 6)


def test_solve_weight_two_and_up_nonunique():
    with pytest.raises(NonUniqueSolution):
        solve_principal_part(2, PrincipalPart({1: 1}), False, 6)
    with pytest.raises(NonUniqueSolution):
        solve_principal_part(12, PrincipalPart({1: 1}), True, 6)


def test_solve_weight_zero_pins_constant():
    sol = solve_principal_part(0, PrincipalPart({1: 1}, constant=7), False, 5)
    assert sol.coefficient(0) == 7
    assert sol.coefficient(-1) == 1


def _examples(cases):
    """Each argument tuple of cases as an @example, in order."""
    def apply(test):
        for args in reversed(cases):
            test = example(*args)(test)
        return test

    return apply


def _seeded_examples(seed, count, case):
    """The count cases a seeded loop drew with case(rng), as @examples, so a
    property test keeps every case the loop used to run."""
    rng = random.Random(seed)
    return _examples([case(rng) for _ in range(count)])


def _pp_request(rng):
    weight = rng.choice([0, -4, -10, -12])
    max_pole = rng.randint(1, 4)
    terms = {}
    for r in range(2, max_pole + 1):
        if rng.random() < 0.7:
            terms[r] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return weight, terms


def _solvable_request(weight, terms):
    """The principal part to solve for the request (weight, terms), or None
    where it has a nonzero obstruction or rebalances to zero."""
    pp = PrincipalPart(terms) if terms else PrincipalPart({2: 1})
    # one cusp condition at most in this weight range; rebalance with
    # the q^-1 slot, whose pairing coefficient is the dual's leading 1
    vec = obstruction(weight, pp, CUSPIDAL)
    if len(vec) == 1:
        pp = pp + PrincipalPart({1: 1}).scale(-vec[0])
    elif any(vec):
        return None
    assert obstruction(weight, pp, CUSPIDAL) == [0] * len(vec)
    return None if pp.is_zero() else pp


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, -4, -10, -12]),
       st.dictionaries(st.integers(2, 4), st.builds(Fraction, st.integers(-9, 9),
                                                    st.integers(1, 3))))
@_seeded_examples(101, 120, _pp_request)
def test_solver_round_trip_random(weight, terms):
    # zero-obstruction requests solve and reproduce their negative part
    pp = _solvable_request(weight, terms)
    assume(pp is not None)
    sol = solve_principal_part(weight, pp, False, 9)
    assert not isinstance(sol, ObstructionWitness), (weight, pp)
    assert PrincipalPart.from_series(sol.series).terms == pp.terms
    # solutions are two-sided: their own class re-obstructs to zero
    back = obstruction(weight, PrincipalPart.from_series(sol.series), CUSPIDAL)
    assert not any(back)


def test_solver_round_trip_seeded_cases_reach_solver():
    # hypothesis drops an @example that fails assume() without a word, so
    # most of the seeded requests must still reach the solver above
    rng = random.Random(101)
    reached = sum(_solvable_request(*_pp_request(rng)) is not None for _ in range(120))
    assert reached >= 60


def _fraction_pairing(pp, fb):
    # the pairing summed term by term in Fraction arithmetic
    items = [(0, pp.constant), *pp.terms.items()]
    return [as_coeff(sum((Fraction(lam) * g.coefficient(r) for r, lam in items), Fraction(0)))
            for g in fb]


def _fraction_solve(weight, pp, in_s_shriek, precision):
    """Greedy elimination against the pole-bounded basis on a list of
    Fractions, a route independent of the solver's one sum."""
    dual = HOLOMORPHIC if in_s_shriek else CUSPIDAL
    d = forms.dimension(2 - weight, dual)
    need = max(pp.max_pole + 1, forms.leading_start(dual) + d + 1)
    vec = _fraction_pairing(pp, forms.basis(2 - weight, dual, need))
    if any(vec):
        return ObstructionWitness(weight, dual, vec)
    a = pp.max_pole + forms.dim_cusp(2 - weight)
    fb = wh_slice_basis(weight, a, precision)
    by_leading = dict(zip(fb.leading, fb))
    sol = [Fraction(0)] * (precision + a)
    for n in range(-a, 1 if in_s_shriek or weight == 0 else 0):
        step = Fraction(pp.coefficient(-n)) - sol[n + a]
        if step:
            sol = [x + step * y for x, y in zip(sol, by_leading[n].series.coeffs)]
    return ModularForm(weight, LaurentSeries(-a, sol, precision))


def _outcome(result):
    """Every field of a solver result, with the type of each number."""
    if isinstance(result, ObstructionWitness):
        return result.weight, result.dual_kind, [(type(c), c) for c in result.vector]
    s = result.series
    return result.weight, s.val, s.prec, [(type(c), c) for c in s.coeffs]


_PP_COEFFS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                       st.fractions(-10 ** 4, 10 ** 4, max_denominator=10 ** 6))


def _rebalanced(weight, pp, in_s_shriek):
    """pp moved onto the kernel of its pairing, by poles alone: the reduced
    dual basis is 1 at its own leading index and 0 at the others, so
    subtracting entry i at leading index i >= 1 zeroes that entry.  The
    entry at leading index 0 (the holomorphic dual's) is cancelled first at
    pole order d, which the other leading indices leave alone."""
    dual = HOLOMORPHIC if in_s_shriek else CUSPIDAL
    d = forms.dimension(2 - weight, dual)
    if in_s_shriek and d:
        g0 = forms.basis(2 - weight, dual, d + 1)[0].coefficient(d)
        vec = obstruction(weight, pp, dual)
        if g0:
            pp = pp - PrincipalPart({d: Fraction(vec[0]) / g0})
    fb = forms.basis(2 - weight, dual, forms.leading_start(dual) + d + 1)
    for lead, v in zip(fb.leading, obstruction(weight, pp, dual)):
        if lead:
            pp = pp - PrincipalPart({lead: v})
    return pp


@st.composite
def _pp_requests(draw):
    """(weight, pp, in_s_shriek, precision) at weights -2..-40: random
    rational principal parts, about half of them rebalanced so that they
    are not obstructed."""
    weight = -2 * draw(st.integers(1, 20))
    in_s_shriek = draw(st.booleans())
    terms = draw(st.dictionaries(st.integers(1, 6), _PP_COEFFS, max_size=4))
    pp = PrincipalPart(terms, 0 if in_s_shriek else draw(_PP_COEFFS))
    if draw(st.booleans()):
        pp = _rebalanced(weight, pp, in_s_shriek)
    return weight, pp, in_s_shriek, pp.max_pole + draw(st.integers(1, 20))


# solved and obstructed, in both spaces; the test below checks that they are
_WALK_EXAMPLES = (
    (-4, PrincipalPart({5: 1}), False, 12),
    (-10, PrincipalPart({1: 1}, 4), False, 5),
    (-10, PrincipalPart({1: Fraction(1, 3), 2: -7}), True, 6),
    (-12, PrincipalPart({1: Fraction(-5, 2)}, 9), False, 4),
    (-10, _rebalanced(-10, PrincipalPart({3: Fraction(7, 5)}), True), True, 9),
    (-24, _rebalanced(-24, PrincipalPart({1: 3, 4: Fraction(-1, 7)}, 2), False), False, 8),
)


@settings(max_examples=150, deadline=None)
@given(_pp_requests())
@_examples([(case,) for case in _WALK_EXAMPLES])
def test_solver_matches_fraction_walk(case):
    weight, pp, in_s_shriek, precision = case
    want = _fraction_solve(weight, pp, in_s_shriek, precision)
    assert _outcome(solve_principal_part(weight, pp, in_s_shriek, precision)) == _outcome(want)


def test_solver_walk_examples_reach_both_outcomes():
    outcomes = {(case[2], isinstance(_fraction_solve(*case), ObstructionWitness))
                for case in _WALK_EXAMPLES}
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


# windows that end before, at or inside the poles: the slice basis refuses a
# short window before any prescribed index is read, and the first prescribed
# index past the window raises PrecisionExceeded
_EDGE_WINDOWS = [
    ((-2, PrincipalPart({}, 5), False, -3), (-2, -3, -3, [])),
    ((-2, PrincipalPart({1: -3}, Fraction(-4, 3)), False, -4),
     (InsufficientPrecision,
      "pole-bounded basis with leading indices up to -1 needs precision > 0")),
    ((0, PrincipalPart({3: 6, 4: -1, 5: Fraction(5, 2)}), True, -4),
     (InsufficientPrecision,
      "pole-bounded basis with leading indices up to 0 needs precision > 1")),
    ((-10, PrincipalPart({2: 1, 1: 24}), False, -1),
     (InsufficientPrecision,
      "pole-bounded basis with leading indices up to -2 needs precision > -1")),
    ((-26, PrincipalPart({}, 2), False, -1),
     (PrecisionExceeded, "coefficient -1 requested but precision is -1")),
]


@pytest.mark.parametrize("case, want", _EDGE_WINDOWS)
def test_solver_edge_windows_and_error_order(case, want):
    try:
        got = _outcome(solve_principal_part(*case))
    except Exception as e:
        got = type(e), str(e)
    assert got == want


@pytest.mark.parametrize("case, index", [
    ((-10, PrincipalPart({1: 1}), False, 6), -1),
    ((-10, PrincipalPart({1: 1, 2: 5}), True, 6), -1),
    ((-22, PrincipalPart({3: 2, 1: 1}), False, 4), -2),
    # the fault at -1 is reported before the constant term past the window
    ((-10, PrincipalPart({1: 1, 2: 5}), True, 0), -1),
])
def test_solver_fault_check_names_first_wrong_index(monkeypatch, case, index):
    # an obstructed request let through: no form has this principal part
    monkeypatch.setattr(whbasis, "obstruction", lambda weight, pp, dual: [0])
    with pytest.raises(AssertionError) as info:
        solve_principal_part(*case)
    assert str(info.value) == "unobstructed principal part failed to solve at index %d" % index


@settings(max_examples=100, deadline=None)
@given(st.integers(-20, -1), st.sampled_from([CUSPIDAL, HOLOMORPHIC]),
       st.dictionaries(st.integers(1, 8), _PP_COEFFS, max_size=5), _PP_COEFFS)
def test_pairing_matches_fraction_sum(half_weight, dual, terms, constant):
    weight = 2 * half_weight
    pp = PrincipalPart(terms, constant)
    fb = forms.basis(2 - weight, dual, pp.max_pole + forms.dimension(2 - weight, dual) + 2)
    assert [(type(c), c) for c in whbasis.pairing(pp, fb)] == \
        [(type(c), c) for c in _fraction_pairing(pp, fb)]


# -- decomposition ------------------------------------------------------------


def test_decompose_f_over_delta():
    f7 = meroforms.build("F7", 10)
    d = ModularForm(12, delta(10).series)
    ratio = f7 / d
    one = ModularForm(0, LaurentSeries.one(ratio.series.prec))
    coeffs = j_polynomial_decompose(ratio, one)
    assert coeffs == [3375, 1]


def test_decompose_weight_mismatch():
    f7 = meroforms.build("F7", 8)
    one = ModularForm(0, LaurentSeries.one(8))
    with pytest.raises(ValueError):
        j_polynomial_decompose(f7, one)


def test_decompose_rejects_non_polynomial():
    # delta / E4 is not E4-times-polynomial-in-j
    e4 = forms.eisenstein(4, 12)
    d = ModularForm(12, delta(12).series)
    with pytest.raises(NotPolynomialInJ):
        j_polynomial_decompose(d, e4 ** 3)


def test_decompose_reproduces_quartic():
    # independent route to the degree-4 polynomial in the g5 construction
    g5 = meroforms.build("g5", 8)
    seed = meroforms.build_expression("E8/delta", 14)
    coeffs = j_polynomial_decompose(g5, seed)
    assert coeffs == [114237825024, -1425282400, 3838860, -3480, 1]


# -- derivative image membership ----------------------------------------------


def test_bol_membership_of_shifted_image():
    # D^5 image of a weight -4 form: construct one directly and recover it
    src = solve_principal_part(-4, PrincipalPart({5: 1, 1: -3126}), True, 30)
    h = ModularForm(6, src.series.d_power(5))
    rep = bol_image_membership(h, 3, True)
    assert rep.ok
    assert rep.witness.series == src.series
    assert rep.window[1] == 30


def test_bol_sees_pole_only_mismatch(monkeypatch):
    # a witness whose image misses h's q^-2 pole, with its window starting at q^-1
    h = ModularForm(6, LaurentSeries(-2, [1, 0, 0, 0]))
    fake = SimpleNamespace(series=LaurentSeries(-1, [0, 0, 0]))
    monkeypatch.setattr(whbasis, "solve_principal_part", lambda *args: fake)
    rep = bol_image_membership(h, 3, True)
    assert not rep.ok
    assert rep.mismatch == {"index": -2, "lhs": "0", "rhs": "1"}


def test_bol_rejects_nonzero_constant():
    h = ModularForm(6, LaurentSeries.from_coeff_map({0: 1, 1: 5}, 4, valuation=-1))
    rep = bol_image_membership(h, 3, True)
    assert not rep.ok
    assert rep.mismatch["index"] == 0


def test_bol_mismatch_past_the_decimal_digit_limit():
    # CPython refuses int -> decimal str above 4300 digits
    h = ModularForm(6, LaurentSeries(0, [0, 10 ** 5000, 0, 0], 4))
    rep = bol_image_membership(h, 3, True)
    assert not rep.ok
    assert rep.mismatch == {"index": 1, "lhs": "0", "rhs": "1" + "0" * 5000}


def test_bol_obstructed_candidate():
    # -f6iinfty is not a D^5 image of anything in the zero-constant space:
    # the pairing against E6 survives; -504 = c_{E6}(1)
    f = meroforms.build("f6iinfty", 20)
    rep = bol_image_membership(ModularForm(6, f.series.scale(-1)), 3, True)
    assert not rep.ok
    assert rep.obstruction is not None
    assert list(rep.obstruction.vector) == [-504]


def test_bol_accepts_with_free_constant():
    # ... but it is one with the constant left free: witness E8/delta
    f = meroforms.build("f6iinfty", 20)
    rep = bol_image_membership(ModularForm(6, f.series.scale(-1)), 3, False)
    assert rep.ok
    e8d = meroforms.build_expression("E8/delta", rep.witness.series.prec)
    assert compare(rep.witness.series, e8d.series)


def test_bol_detects_mismatch_beyond_principal_part():
    # corrupt one positive-index coefficient: the witness solve succeeds
    # but the d_power comparison must locate the bad index
    src = solve_principal_part(-4, PrincipalPart({1: -3126, 5: 1}), True, 12)
    good = src.series.d_power(5)
    bad = good.add(LaurentSeries.from_coeff_map({3: Fraction(1, 7)}, good.prec))
    rep = bol_image_membership(ModularForm(6, bad), 3, True)
    assert not rep.ok
    assert rep.mismatch["index"] == 3
