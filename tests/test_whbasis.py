"""Principal parts, pole-bounded bases, the obstruction pairing, the
solver, j-polynomial decomposition, and derivative-image membership."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from merohecke import forms, meroforms, whbasis
from merohecke.forms import CUSPIDAL, HOLOMORPHIC, ModularForm, delta, j_function
from merohecke.qseries import LaurentSeries, compare
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


def _seeded_examples(seed, count, case):
    """The count cases a seeded loop drew with case(rng), as @examples, so a
    property test keeps every case the loop used to run."""
    rng = random.Random(seed)
    cases = [case(rng) for _ in range(count)]

    def apply(test):
        for args in reversed(cases):
            test = example(*args)(test)
        return test

    return apply


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
