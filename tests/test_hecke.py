"""Hecke, U, and V operators on truncated expansions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from merohecke import hecke
from merohecke.forms import delta, eisenstein, j_function, sigma
from merohecke.hecke import divisors, t_op, t_op_commutes_check, t_op_via_uv, u_op, v_op
from merohecke.qseries import InsufficientPrecision, LaurentSeries, compare

TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
       8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944}


def _rand_series(rng):
    val = rng.randint(-4, 3)
    length = rng.randint(3, 14)
    coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(length)]
    return LaurentSeries(val, coeffs)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_cosets():
    for m in range(1, 61):
        reps = hecke.cosets(m)
        assert len(set(reps)) == len(reps) == sigma(1, m)
        assert all(a * d == m and 0 <= b < d for a, b, d in reps)


def test_v_op_window_and_values():
    f = LaurentSeries(-1, [2, 0, 5])  # [-1, 2)
    g = v_op(f, 3)
    # c'(3n) = c(n); window [3*-1, 3*1+1) = [-3, 4)
    assert (g.val, g.prec) == (-3, 4)
    assert g.coefficient(-3) == 2
    assert g.coefficient(3) == 5
    assert g.coefficient(1) == 0


def test_u_op_window_and_values():
    f = LaurentSeries(-3, [1, 0, 0, 4, 0, 0, 9])  # [-3, 4)
    g = u_op(f, 3)
    assert (g.val, g.prec) == (-1, 2)
    assert g.coefficient(-1) == 1
    assert g.coefficient(0) == 4
    assert g.coefficient(1) == 9


def _examples(cases):
    """The argument tuples in cases as @examples, in order."""
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


# the draws of _rand_series: val in [-4, 3], 3 to 14 coefficients p/q
_coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
_series = st.builds(LaurentSeries, st.integers(-4, 3), st.lists(_coeff, min_size=3, max_size=14))


def _weights(lo, hi):
    """Even weights 2*lo, ..., 2*hi."""
    return st.integers(lo, hi).map(lambda k: 2 * k)


@settings(max_examples=100, deadline=None)
@given(_series, st.integers(1, 6))
@_seeded_examples(9, 60, lambda rng: (_rand_series(rng), rng.randint(1, 6)))
def test_u_after_v_is_identity(f, m):
    g = u_op(v_op(f, m), m)
    lo = max(f.val, g.val)
    hi = min(f.prec, g.prec)
    assert hi > lo
    for n in range(lo, hi):
        assert g.coefficient(n) == f.coefficient(n)


def test_delta_is_t2_eigenform():
    d = delta(25).series
    img = t_op(d, 12, 2)
    window, mismatch = compare(img, d.scale(TAU[2]))
    assert mismatch is None and window[0] == 1 and window[1] >= 12


def test_delta_eigenvalues_up_to_12():
    # tau is the T_m eigenvalue system of the unique weight-12 cusp form
    d = delta(61).series
    for m in range(1, 13):
        img = t_op(d, 12, m)
        assert img.coefficient(1) == TAU[m]
        assert compare(img, d.scale(TAU[m])), m


def test_eisenstein_eigenvalues():
    for weight in (4, 6, 8, 10, 14):
        e = eisenstein(weight, 31).series
        for m in (2, 3, 5, 6):
            img = t_op(e, weight, m)
            assert compare(img, e.scale(sigma(weight - 1, m))), (weight, m)


def test_t_op_on_j_window():
    j = j_function(13).series  # [-1, 13)
    img = t_op(j, 0, 3)
    # lo = 3 * -1, hi = ceil(13 / 3)
    assert (img.val, img.prec) == (-3, 5)
    assert img.coefficient(-3) == Fraction(1, 3)


def test_t_op_constant_term_uses_full_divisor_sum():
    # gcd(m, 0) = m: constant picks up sigma_{w-1}(m)
    e4 = eisenstein(4, 9).series
    img = t_op(e4, 4, 6)
    assert img.coefficient(0) == sigma(3, 6)


def _uv_case(rng):
    return _rand_series(rng), rng.randint(1, 8), 2 * rng.randint(-5, 6)


def _uv_routes(f, weight, m):
    """(T_m f, its V/U decomposition), or None when a window is too narrow."""
    try:
        return t_op(f, weight, m), t_op_via_uv(f, weight, m)
    except InsufficientPrecision:
        return None


# int-only and mixed int/Fraction coefficients too, long enough for m up to 12
_int_series = st.builds(LaurentSeries, st.integers(-4, 3), st.lists(
    st.integers(-10 ** 30, 10 ** 30), min_size=3, max_size=60))
_mixed_series = st.builds(LaurentSeries, st.integers(-4, 3), st.lists(
    st.one_of(st.integers(-10 ** 30, 10 ** 30), _coeff), min_size=3, max_size=60))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_series, _int_series, _mixed_series), st.integers(1, 12), _weights(-30, 6))
@example(LaurentSeries(-2, list(range(1, 40))), 12, -60)
@example(LaurentSeries(-1, [3, 0, Fraction(1, 2), -7] * 9), 6, -60)
@example(LaurentSeries(0, [1] * 30), 1, -60)
@_seeded_examples(31, 300, _uv_case)
def test_t_op_matches_uv_route(f, m, weight):
    routes = _uv_routes(f, weight, m)
    assume(routes is not None)
    window, mismatch = compare(*routes)
    assert mismatch is None, (f, weight, m)
    # both normalized: an integral coefficient is an int on either route
    a, b = routes
    assert all(type(a.coefficient(n)) is type(b.coefficient(n)) for n in range(*window))


def test_t_op_matches_uv_route_seeded_cases_reach_check():
    # hypothesis drops an @example that fails assume() without a word, so
    # most of the seeded cases must still reach the comparison above
    rng = random.Random(31)
    checked = sum(_uv_routes(f, weight, m) is not None
                  for f, m, weight in (_uv_case(rng) for _ in range(300)))
    assert checked >= 200


def _principal_part_cases():
    """The (f, m) cases of windows [val, 1), the shape of a principal part
    with its constant, that the seed-31 loop drew after its 300 cases."""
    rng = random.Random(31)
    for _ in range(300):
        _uv_case(rng)
    return [(LaurentSeries(val, [Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                                 for _ in range(1 - val)], 1), m)
            for val in range(-4, 1) for m in range(1, 9)]


_principal_part = st.integers(-4, 0).flatmap(lambda val: st.builds(
    LaurentSeries, st.just(val), st.lists(_coeff, min_size=1 - val, max_size=1 - val),
    st.just(1)))


@settings(max_examples=40, deadline=None)
@given(_principal_part, st.integers(1, 8))
@_examples(_principal_part_cases())
def test_t_op_matches_uv_route_on_principal_parts(f, m):
    for weight in (-10, -4, 0, 4):
        a, b = _uv_routes(f, weight, m)
        assert (a.val, a.prec) == (b.val, b.prec) == (m * min(f.val, 0), 1)
        assert compare(a, b), (f, weight, m)


def _multiplicativity_cases():
    """The coprime (f, m, n, weight) cases of 250 seed-47 draws; a draw
    with gcd(m, n) > 1 takes no weight."""
    rng = random.Random(47)
    cases = []
    for _ in range(250):
        f, m, n = _rand_series(rng), rng.randint(1, 6), rng.randint(1, 6)
        if gcd(m, n) == 1:
            cases.append((f, m, n, 2 * rng.randint(-4, 6)))
    return cases


def _commutes(f, weight, m, n):
    """t_op_commutes_check, or None when a window is too narrow."""
    try:
        return t_op_commutes_check(f, weight, m, n)
    except InsufficientPrecision:
        return None


@settings(max_examples=100, deadline=None)
@given(_series, st.integers(1, 6), st.integers(1, 6), _weights(-4, 6))
@_examples(_multiplicativity_cases())
def test_multiplicativity_random(f, m, n, weight):
    assume(gcd(m, n) == 1)
    ok = _commutes(f, weight, m, n)
    assume(ok is not None)
    assert ok, (f, weight, m, n)


def test_multiplicativity_seeded_cases_reach_check():
    checked = sum(_commutes(f, weight, m, n) is not None
                  for f, m, n, weight in _multiplicativity_cases())
    assert checked >= 100


def test_commutes_check_sees_pole_only_mismatch(monkeypatch):
    # T_4 T_2 f has a q^-2 term below the window start of T_2 T_4 f
    images = {(2, 4): LaurentSeries(-2, [1, 0, 5]), (4, 2): LaurentSeries(-1, [0, 5])}

    def fake_t_op(f, weight, m):
        return (m,) if f is None else images[f + (m,)]

    monkeypatch.setattr(hecke, "t_op", fake_t_op)
    assert not hecke.t_op_commutes_check(None, 12, 2, 4)


def test_prime_power_recursion():
    # T_{p^2} = T_p T_p - p^{w-1} T_1 scaled: c-level identity on delta
    d = delta(101).series
    w = 12
    p = 3
    lhs = t_op(d, w, p * p)
    tp = t_op(d, w, p)
    rhs = t_op(tp, w, p).sub(d.scale(p ** (w - 1)).truncate(t_op(tp, w, p).prec))
    window, mismatch = compare(lhs, rhs)
    assert mismatch is None and window[1] >= 10


def test_t_op_rejects_bad_arguments():
    d = delta(8).series
    with pytest.raises(ValueError):
        t_op(d, 12, 0)
    with pytest.raises(ValueError):
        t_op(d, 11, 2)


def test_t_op_guards_narrow_window():
    # window [-5, -2): the r=2 term at output index -2 needs c(-1),
    # which sits above the window end
    f = LaurentSeries(-5, [1, 1, 1])
    with pytest.raises(InsufficientPrecision):
        t_op(f, -4, 2)


def test_t_op_bare_principal_part_window():
    # a window ending at 0 stays computable: every requested index is
    # either inside the window or a provable zero below it
    f = LaurentSeries(-2, [1, 1])
    img = t_op(f, -4, 5)
    assert (img.val, img.prec) == (-10, 0)
    # only the r=5 branch lands inside the window: 5^-5 c(n/5)
    assert img.coefficient(-10) == Fraction(1, 5 ** 5)
    assert img.coefficient(-5) == Fraction(1, 5 ** 5)
    assert img.coefficient(-1) == 0


def test_u_op_guards_empty_window():
    f = LaurentSeries(1, [3, 0])  # [1, 3)
    with pytest.raises(InsufficientPrecision):
        u_op(f, 5)
