"""Laurent series engine: window algebra, arithmetic, serialization."""

import decimal
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from merohecke.qseries import (
    LaurentSeries,
    InsufficientPrecision,
    PrecisionExceeded,
    ZeroLeadingCoefficient,
    as_coeff,
    compare,
    dumps,
    loads,
    to_json_obj,
    from_json_obj,
    _KRON_MIN_LEN,
    _conv_kron,
    _conv_school,
    _convolve,
    _dec_str,
    _slot_bits,
)


def _rand_series(rng, minval=-5, maxval=5, maxlen=12, rational=False):
    val = rng.randint(minval, maxval)
    length = rng.randint(1, maxlen)
    coeffs = []
    for _ in range(length):
        num = rng.randint(-50, 50)
        if rational:
            coeffs.append(Fraction(num, rng.randint(1, 9)))
        else:
            coeffs.append(num)
    return LaurentSeries(val, coeffs)


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


@st.composite
def _series(draw, rational=None):
    """A series with val in [-5, 5] and 1 to 3 * _KRON_MIN_LEN int or
    Fraction coefficients, long enough for either product path."""
    if rational is None:
        rational = draw(st.booleans())
    if rational:
        coeff = st.fractions(-50, 50, max_denominator=9)
    else:
        coeff = st.integers(-10 ** 6, 10 ** 6)
    coeffs = draw(st.lists(coeff, min_size=1, max_size=3 * _KRON_MIN_LEN))
    return LaurentSeries(draw(st.integers(-5, 5)), coeffs)


# -- construction and access ----------------------------------------------


def test_window_bookkeeping():
    s = LaurentSeries(-2, [1, 0, 3, 4])
    assert s.val == -2
    assert s.prec == 2
    assert s.coefficient(-2) == 1
    assert s.coefficient(0) == 3
    # below the window is a provable zero
    assert s.coefficient(-7) == 0
    with pytest.raises(PrecisionExceeded):
        s.coefficient(2)


def test_constructor_rejects_window_mismatch():
    with pytest.raises(ValueError):
        LaurentSeries(0, [1, 2], 5)


def test_coefficients_normalized_to_fractions():
    s = LaurentSeries(0, ["3/4", 2, Fraction(1, 3)])
    assert s.coefficient(0) == Fraction(3, 4)
    assert s.coefficient(1) == 2
    assert isinstance(s.coefficient(1), (int, Fraction))


def test_as_coeff_rejects_floats():
    with pytest.raises(TypeError):
        as_coeff(0.5)


def test_monomial_and_zero():
    m = LaurentSeries.monomial(-1, 4, coeff=7)
    assert m.coefficient(-1) == 7
    assert m.coefficient(2) == 0
    z = LaurentSeries.zero(6)
    assert z.is_zero()
    assert z.prec == 6


def test_from_coeff_map():
    s = LaurentSeries.from_coeff_map({-1: 2, 3: "1/2"}, 5)
    assert s.val == -1
    assert s.coefficient(3) == Fraction(1, 2)
    assert s.coefficient(0) == 0


# -- addition and multiplication windows ----------------------------------


def test_add_window_is_min_of_precisions():
    a = LaurentSeries(0, [1, 2, 3])      # [0, 3)
    b = LaurentSeries(-1, [5, 0, 0, 0, 9])  # [-1, 4)
    c = a.add(b)
    assert (c.val, c.prec) == (-1, 3)
    assert c.coefficient(-1) == 5
    assert c.coefficient(0) == 1


def test_mul_window_rule():
    # [va+vb, min(Pa+vb, Pb+va)) window algebra
    a = LaurentSeries(1, [1, 1, 1])     # [1, 4)
    b = LaurentSeries(-2, [1, 1])       # [-2, 0)
    c = a.mul(b)
    assert (c.val, c.prec) == (-1, min(4 - 2, 0 + 1))


def _mixed_pair(rng):
    a = _rand_series(rng, rational=rng.random() < 0.4)
    return a, _rand_series(rng, rational=rng.random() < 0.4)


@settings(max_examples=100, deadline=None)
@given(_series(), _series())
@_seeded_examples(11, 200, _mixed_pair)
def test_mul_against_schoolbook_oracle(a, b):
    c = a.mul(b)
    for n in range(c.val, c.prec):
        total = 0
        for i in range(a.val, a.prec):
            j = n - i
            if b.val <= j < b.prec:
                total += a.coefficient(i) * b.coefficient(j)
        assert c.coefficient(n) == total, (n, a, b)


def _kron(a, b, n):
    """The Kronecker path forced at any length: zero-pad or cut both lists
    to n terms, so n = len(a) + len(b) - 1 gives the full product."""
    a = (list(a) + [0] * n)[:n]
    b = (list(b) + [0] * n)[:n]
    return _conv_kron(a, b, n, _slot_bits(a, b, n))


def _naive_product(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(n)]


def _int_lists(rng):
    a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 40))]
    return a, [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 40))]


_ints = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(_ints, _ints)
@_seeded_examples(23, 60, _int_lists)
def test_kronecker_matches_schoolbook(a, b):
    full = len(a) + len(b) - 1
    assert _kron(a, b, full) == _conv_school(a, b, full)
    n = min(len(a), len(b))
    assert _kron(a, b, n) == _conv_school(a, b, n)


def test_kronecker_huge_coefficients():
    # slots far wider than a machine word must stay exact
    a = [10 ** 50, -(10 ** 48), 3]
    b = [7, -(10 ** 51)]
    assert _kron(a, b, 4) == _conv_school(a, b, 4)
    assert _kron(a, b, 2) == _conv_school(a, b, 2)


_SIGNS = {
    "zero": lambda bound: st.just(0),
    "negative": lambda bound: st.integers(-bound, -1),
    "mixed": lambda bound: st.integers(-bound, bound),
}


@st.composite
def _coeff_lists(draw):
    """Two lists with lengths on either side of the Kronecker crossover, a
    kept length n up to the shorter one, and coefficients up to 10^60, each
    list all zero, all negative or of mixed sign."""
    bound = draw(st.sampled_from([1, 10 ** 6, 10 ** 60]))

    def one_list():
        size = draw(st.integers(1, 3 * _KRON_MIN_LEN))
        coeffs = _SIGNS[draw(st.sampled_from(sorted(_SIGNS)))](bound)
        return draw(st.lists(coeffs, min_size=size, max_size=size))

    a, b = one_list(), one_list()
    return a, b, draw(st.integers(1, min(len(a), len(b))))


@settings(max_examples=300, deadline=None)
@given(_coeff_lists())
def test_kernel_paths_agree_property(case):
    a, b, n = case
    want = _naive_product(a, b, n)
    assert _conv_school(a, b, n) == want
    assert _kron(a, b, n) == want
    assert _convolve(a, b, n) == want
    full = len(a) + len(b) - 1
    assert _kron(a, b, full) == _naive_product(a, b, full)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=2 * _KRON_MIN_LEN),
       st.lists(st.integers(-50, 50), min_size=2 * _KRON_MIN_LEN, max_size=2 * _KRON_MIN_LEN))
def test_convolve_fractions_normalized(a, b):
    # Fraction inputs take schoolbook at every length; integral results are ints
    n = len(a)
    out = _convolve(a, b, n)
    assert out == _naive_product(a, b, n)
    assert all(type(c) is int or c.denominator != 1 for c in out)


@st.composite
def _square_operands(draw):
    """A tuple of ints (the form series coefficients take) and a kept length
    n up to its length, on both sides of _KRON_MIN_LEN and of the slot-width
    rule: with up to 48 terms, 2^40 coefficients fit the Kronecker slot limit
    from n = 16 and 10^60 ones never do."""
    bound = draw(st.sampled_from([1, 10 ** 6, 2 ** 40, 10 ** 60]))
    size = draw(st.integers(1, 3 * _KRON_MIN_LEN))
    coeffs = _SIGNS[draw(st.sampled_from(sorted(_SIGNS)))](bound)
    a = tuple(draw(st.lists(coeffs, min_size=size, max_size=size)))
    return a, draw(st.integers(1, size))


@settings(max_examples=300, deadline=None)
@given(_square_operands())
@example(((3, -1, 4, 1, -5) * 4, 20))                  # Kronecker
@example(((2 ** 40 - 1, -(2 ** 40)) * 10, 16))         # Kronecker, slot at the limit
@example(((10 ** 60, -(10 ** 60) + 7) * 10, 20))       # too wide: schoolbook
@example(((-7,) * 15, 15))                             # short: schoolbook
@example(((0,) * 40, 33))                              # all zero
@example(((-(10 ** 6),) * 48, 30))                     # negative, cut from a longer tuple
def test_convolve_square_matches_product(case):
    a, n = case
    want = _conv_school(a, a, n)
    assert _convolve(a, a, n) == want
    assert _convolve(a, list(a), n) == want


def test_scale_and_shift():
    s = LaurentSeries(0, [1, 2]).scale(Fraction(1, 2)).shift(-3)
    assert s.val == -3
    assert s.coefficient(-3) == Fraction(1, 2)
    assert s.coefficient(-2) == 1


def _types(s):
    return [type(c) for c in s.coeffs]


def test_add_scale_d_power_result_types():
    # integral results are plain ints, whether the inputs were ints or
    # Fractions that add or scale to integers; the rest stay Fractions
    ints = LaurentSeries(-1, [2, -4, 0, 6])
    halves = LaurentSeries(0, [Fraction(1, 2), Fraction(1, 3), 5])
    assert _types(ints.add(ints)) == [int] * 4
    assert _types(halves.add(halves)) == [int, Fraction, int]
    assert halves.add(halves).coeffs == (1, Fraction(2, 3), 10)
    assert _types(ints.add(halves)) == [int, Fraction, Fraction, int]
    assert _types(ints.sub(ints)) == [int] * 4
    assert _types(ints.scale(3)) == [int] * 4
    assert ints.scale(Fraction(1, 2)).coeffs == (1, -2, 0, 3)
    assert _types(ints.scale(Fraction(1, 2))) == [int] * 4
    assert _types(ints.scale(Fraction(1, 4))) == [Fraction, int, int, Fraction]
    assert _types(ints.scale(Fraction(4, 2))) == [int] * 4
    assert _types(halves.scale(6)) == [int] * 3
    assert _types(ints.d_power(2)) == [int] * 4
    assert halves.d_power(1).coeffs == (0, Fraction(1, 3), 10)
    assert _types(halves.d_power(1)) == [int, Fraction, int]
    # an empty window and the zero series
    empty = ints.add(LaurentSeries(-3, [], -3))
    assert (empty.val, empty.prec, empty.coeffs) == (-3, -3, ())
    assert _types(LaurentSeries.zero(3).scale(Fraction(1, 7))) == [int] * 3


# -- inversion, division, powers -------------------------------------------


def test_invert_unit_lead():
    s = LaurentSeries(0, [1, -1, 0, 0, 0, 0])  # 1 - q on [0, 6)
    inv = s.invert()
    # geometric series
    for n in range(6):
        assert inv.coefficient(n) == 1


def test_invert_window_shrinks_for_deep_valuation():
    # invert on [-v*, P - 2 v*) for true valuation v*
    s = LaurentSeries(2, [1, 5, 7, 1, 2])  # [2, 7)
    inv = s.invert()
    assert (inv.val, inv.prec) == (-2, 3)
    prod = s.mul(inv)
    for n in range(prod.val, prod.prec):
        assert prod.coefficient(n) == (1 if n == 0 else 0)


def test_invert_rational_lead():
    s = LaurentSeries(0, [Fraction(2, 3), 1, 4])
    prod = s.mul(s.invert())
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0


def test_invert_zero_lead_raises():
    with pytest.raises(ZeroLeadingCoefficient):
        LaurentSeries(0, [0, 0, 0]).invert()


@settings(max_examples=100, deadline=None)
@given(_series(rational=True))
@_seeded_examples(5, 120, lambda rng: (_rand_series(rng, rational=True),))
def test_invert_round_trip_random(s):
    assume(not s.is_zero())
    inv = s.invert()
    prod = s.mul(inv)
    for n in range(prod.val, prod.prec):
        assert prod.coefficient(n) == (1 if n == 0 else 0)


def test_div_explicit_target_precision():
    num = LaurentSeries(1, [1] + [0] * 9)    # q on [1, 11)
    den = LaurentSeries(0, [1, -1] + [0] * 8)
    q = num.div(den, target_precision=5)
    assert q.prec == 5
    for n in range(1, 5):
        assert q.coefficient(n) == 1


def _ref_inverse(s, target):
    """Reference inverse on [-v*, target) by the textbook Fraction
    recurrence w_n = -(sum_{i=1..n} u_i w_(n-i)) / u_0."""
    v = s.valuation()
    if target <= -v:
        return LaurentSeries(target, [], target)
    u = [Fraction(s.coefficient(v + i)) for i in range(target + v)]
    w = []
    for n in range(target + v):
        acc = sum((u[i] * w[n - i] for i in range(1, n + 1)), Fraction(0))
        w.append(((1 if n == 0 else 0) - acc) / u[0])
    return LaurentSeries(-v, w, target)


@st.composite
def _series_for_division(draw, lead=None):
    """A series with val in [-3, 4], 0-3 stored leading zeros and int or
    Fraction coefficients; the first nonzero one is `lead` when given."""
    if draw(st.booleans()):
        coeff = st.integers(-10 ** 6, 10 ** 6)
    else:
        coeff = st.fractions(-100, 100, max_denominator=9)
    zeros = draw(st.integers(0, 3))
    first = lead if lead is not None else draw(
        st.one_of(st.sampled_from([1, -1]), coeff.filter(bool)))
    tail = draw(st.lists(coeff, max_size=24))
    return LaurentSeries(draw(st.integers(-3, 4)), [0] * zeros + [first] + tail)


@settings(max_examples=200, deadline=None)
@given(_series_for_division(), _series_for_division(), st.data())
def test_division_recurrence_matches_inverse_times_numerator(num, den, data):
    v = den.valuation()
    inv_hi = den.prec - 2 * v
    inv_target = data.draw(st.integers(inv_hi - 6, inv_hi), label="inv_target")
    inv = den.invert(inv_target)
    assert inv == _ref_inverse(den, inv_target)
    assert den.invert() == _ref_inverse(den, inv_hi)
    assert all(type(c) is int or c.denominator != 1 for c in inv.coeffs)
    hi = min(num.prec - v, inv_hi + num.val)
    target = data.draw(st.integers(num.val - v - 2, hi), label="target")
    q = num.div(den, target)
    assert (q.val, q.prec) == ((num.val - v, target) if target > num.val - v
                               else (target, target))
    assert q == num.mul(_ref_inverse(den, inv_hi)).truncate(target)
    assert num.div(den) == num.mul(_ref_inverse(den, inv_hi))
    assert all(type(c) is int or c.denominator != 1 for c in q.coeffs)
    # the window rule is exact: one more coefficient is refused
    with pytest.raises(InsufficientPrecision):
        num.div(den, hi + 1)
    with pytest.raises(InsufficientPrecision):
        den.invert(inv_hi + 1)


@settings(max_examples=200, deadline=None)
@given(_series_for_division(), _series_for_division(), st.data())
def test_division_resumes_from_a_shorter_quotient(num, den, data):
    # a seed holding the quotient's first rows gives what the division from
    # nothing gives, values and types; one whose last row is off, by an int
    # or a fraction, or that starts one place later, is dropped
    q = num.div(den)
    rows = data.draw(st.integers(0, len(q.coeffs)), label="rows")
    seed = q.truncate(q.val + rows)
    seeds = [seed, seed.shift(1)]
    if rows:
        off = data.draw(st.sampled_from([1, -1, Fraction(1, 2)]), label="off")
        seeds.append(LaurentSeries(seed.val, seed.coeffs[:-1] + (seed.coeffs[-1] + off,)))
    for s in seeds:
        got = num.div(den, q.prec, s)
        assert got == q, s
        assert list(map(type, got.coeffs)) == list(map(type, q.coeffs))


def test_integer_division_drops_a_seed_with_a_fraction():
    # 1/(1 + q) = 1 - q + q^2 - ...; the seed's last row is what the
    # recurrence gives from its rows, but an int quotient has no fraction
    num, den = LaurentSeries(0, [1] + [0] * 5), LaurentSeries(0, [1, 1] + [0] * 4)
    seed = LaurentSeries(0, [1, Fraction(-1, 2), Fraction(1, 2)])
    assert num.div(den, 6, seed) == LaurentSeries(0, [1, -1, 1, -1, 1, -1])


@pytest.mark.parametrize("lead", [1, -1, 3, Fraction(-2, 5)])
def test_division_by_zero_series_raises(lead):
    num = LaurentSeries(0, [lead, 1, 2])
    for zero in (LaurentSeries(0, [0, 0, 0]), LaurentSeries(-2, [0]), LaurentSeries(4, [])):
        with pytest.raises(ZeroLeadingCoefficient):
            num.div(zero)
        with pytest.raises(ZeroLeadingCoefficient):
            num.div(zero, 1)
        with pytest.raises(ZeroLeadingCoefficient):
            zero.invert()


def test_pow_window_rule_same_series():
    # P_k = P_1 - (k-1) for k-th power of a valuation-0 unit
    s = LaurentSeries(0, [1, 1, 1, 1, 1, 1])
    p = s.pow(3)
    assert p.prec == 6
    assert p.coefficient(2) == 6  # trinomial count


def test_pow_negative_valuation():
    s = LaurentSeries(-1, [1, 0, 0, 0])
    p = s.pow(2)
    assert p.val == -2
    assert p.coefficient(-2) == 1


def test_pow_zero_is_one():
    s = LaurentSeries(2, [5, 1])
    p = s.pow(0)
    assert p.coefficient(0) == 1


def test_d_power():
    s = LaurentSeries(-2, [1, 0, 0, 1, 5])  # q^-2 + q + 5 q^2
    d = s.d_power(3)
    assert d.coefficient(-2) == -8
    assert d.coefficient(1) == 1
    assert d.coefficient(2) == 40
    # 0^0 = 1 convention: constant survives d^0
    assert s.d_power(0).coefficient(-2) == 1


def test_truncate():
    s = LaurentSeries(0, [1, 2, 3, 4])
    t = s.truncate(2)
    assert t.prec == 2
    with pytest.raises(PrecisionExceeded):
        t.coefficient(2)
    with pytest.raises(InsufficientPrecision):
        s.truncate(9)


# -- ring laws on random inputs ---------------------------------------------


@settings(max_examples=100, deadline=None)
@given(_series(), _series(), _series())
@_seeded_examples(77, 150, lambda rng: tuple(_rand_series(rng) for _ in range(3)))
def test_ring_laws_random(a, b, c):
    lhs = a.mul(b.add(c))
    rhs = a.mul(b).add(a.mul(c))
    lo = max(lhs.val, rhs.val)
    hi = min(lhs.prec, rhs.prec)
    for n in range(lo, hi):
        assert lhs.coefficient(n) == rhs.coefficient(n)
    ab = a.mul(b)
    ba = b.mul(a)
    assert ab == ba


# -- comparison helpers -------------------------------------------------------


def test_equals_to_precision_reports_window():
    # the union window starts at the lower valuation: zeros below a window start
    a = LaurentSeries(0, [1, 2, 3, 4])
    b = LaurentSeries(-1, [0, 1, 2, 3])
    c = compare(a, b)
    assert c
    assert c.window == (-1, 3)
    assert c == ((-1, 3), None)


def test_compare_reports_window_and_first_mismatch():
    a = LaurentSeries(-1, [1, 0, 2, 3])
    b = LaurentSeries(-1, [1, 0, 2, Fraction(1, 2)])
    assert compare(a, a) == ((-1, 3), None)
    assert compare(b, a) == ((-1, 3), {"index": 2, "lhs": "1/2", "rhs": "3"})
    window, mismatch = compare(a.truncate(2), b)
    assert window == (-1, 2) and mismatch is None
    # an empty union window
    assert compare(LaurentSeries(2, [1], 3), LaurentSeries(1, [], 1)) == ((1, 1), None)


def test_compare_is_false_on_mismatch():
    a = LaurentSeries(0, [1, 2, 3])
    assert compare(a, a)
    assert compare(a, LaurentSeries(-3, [0, 0, 0, 1, 2]))
    assert not compare(a, LaurentSeries(0, [1, 2, 4]))
    assert not compare(a, a.scale(2))
    # a pole-only difference, below the second series' window start, counts
    c = compare(LaurentSeries(-2, [1, 0, 5]), LaurentSeries(-1, [0, 5]))
    assert not c
    assert c.mismatch["index"] == -2
    # an empty window holds no mismatch
    assert compare(LaurentSeries(2, [1], 3), LaurentSeries(1, [], 1))


# -- printing and serialization ----------------------------------------------


def test_str_format():
    s = LaurentSeries(2, [1, -4143, 16868385, 0])
    assert str(s) == "q^2 - 4143*q^3 + 16868385*q^4 + O(q^6)"


def test_str_constant_and_negative_powers():
    s = LaurentSeries(-1, [1, 744, Fraction(1, 2)])
    assert str(s) == "q^-1 + 744 + 1/2*q + O(q^2)"


@settings(max_examples=100, deadline=None)
@given(_series())
@_seeded_examples(3, 80, lambda rng: (_rand_series(rng, rational=True),))
def test_json_round_trip_bit_exact(s):
    t = loads(dumps(s))
    assert t.val == s.val and t.prec == s.prec
    assert t == s


# CPython refuses int <-> decimal str above 4300 digits; decimal.Decimal
# converts exactly without that limit, so it serves as the oracle
_BIG = 7 ** 6000 + 1
_BIG_FRACTION = Fraction(_BIG, 3 ** 9000)


def _decimal(c):
    if isinstance(c, Fraction):
        return "%s/%s" % (decimal.Decimal(c.numerator), decimal.Decimal(c.denominator))
    return str(decimal.Decimal(c))


@pytest.mark.parametrize("c", [_BIG, -_BIG, _BIG_FRACTION, -_BIG_FRACTION, 10 ** 8192,
                               10 ** 8192 - 1, 3 ** 40000, 0, 1, -7, Fraction(-3, 7)],
                         ids=["big", "-big", "fraction", "-fraction", "10^8192",
                              "10^8192-1", "3^40000", "0", "1", "-7", "-3/7"])
def test_decimal_conversion_past_the_digit_limit(c):
    text = _decimal(c)
    assert _dec_str(c) == text
    assert as_coeff(text) == c and type(as_coeff(text)) is type(c)


def test_series_text_and_json_past_the_digit_limit():
    with pytest.raises(ValueError):
        str(_BIG)
    s = LaurentSeries(-1, [_BIG, 0, -_BIG_FRACTION, 1], 3)
    assert str(s) == "%s*q^-1 - %s*q + q^2 + O(q^3)" % (_decimal(_BIG), _decimal(_BIG_FRACTION))
    obj = to_json_obj(s)
    assert obj["coefficients"] == [_decimal(c) for c in s.coeffs]
    assert loads(dumps(s)) == s


@settings(max_examples=150, deadline=None)
@given(st.integers(), st.integers(1, 10 ** 40), st.sampled_from(["", "num", "den", "both"]),
       st.integers(4300, 9000))
@example(-1, 1, "den", 4400)
@example(1, 1, "num", 4300)
def test_canonical_text_reads_back(num, den, wide, digits):
    # ints and Fractions, with numerator or denominator past CPython's
    # 4300-digit str <-> int limit when wide names it
    big = 10 ** digits - 7 ** (digits // 2)
    num = num * big + 1 if wide in ("num", "both") else num
    den = den * big if wide in ("den", "both") else den
    for c in (num, as_coeff(Fraction(num, den))):
        got = as_coeff(_dec_str(c))
        assert got == c and type(got) is type(c)


def _read(read, text):
    try:
        got = read(text)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)
    return type(got), got


@pytest.mark.parametrize("text", ["+3", " 3 ", "-0", "6/4", "1_000", "1.5", "1e3", "\u0663",
                                  "-3/9", "03", "+0/5", " 3 / 4 ", "\t-12\n", "3/-4"])
def test_noncanonical_text_reads_as_fraction_does(text):
    assert _read(as_coeff, text) == _read(lambda t: as_coeff(Fraction(t)), text)


def test_zero_denominator_text_keeps_its_error():
    for text in ("3/0", "-3/0", " 0/0 "):
        with pytest.raises(ZeroDivisionError) as want:
            Fraction(text)
        with pytest.raises(ZeroDivisionError) as got:
            as_coeff(text)
        assert str(got.value) == str(want.value)


def test_bad_coefficient_text_keeps_its_error():
    for text in ("abc", "1" * 5000 + "x", "1/", "--1"):
        with pytest.raises(ValueError, match="Invalid literal"):
            as_coeff(text)


@pytest.mark.parametrize("texts", [["1_000", " 7 ", "+5", "\u0663"], ["9" * 5000, "-1", "0"],
                                   ["1", "3/4", "-2"], ["-3", "0", "12"]])
def test_text_coefficients_read_as_as_coeff_reads_them(texts):
    # int reads a list of texts; a fraction or a text past the digit limit
    # sends the whole list to as_coeff
    got = from_json_obj({"valuation": -1, "precision": len(texts) - 1, "coefficients": texts}).coeffs
    want = tuple(map(as_coeff, texts))
    assert got == want and list(map(type, got)) == list(map(type, want))


def test_bad_coefficient_in_a_list_keeps_its_error():
    for coeffs in ([1.5], ["1", 2.0]):
        with pytest.raises(TypeError):
            from_json_obj({"valuation": 0, "precision": len(coeffs), "coefficients": coeffs})
    with pytest.raises(ValueError, match="Invalid literal"):
        LaurentSeries(0, ["1", "abc"])


def test_json_shape():
    s = LaurentSeries(-1, [Fraction(1, 2), 3])
    obj = to_json_obj(s)
    assert obj == {"valuation": -1, "precision": 1, "coefficients": ["1/2", "3"]}
    assert from_json_obj(json.loads(json.dumps(obj))) == s
