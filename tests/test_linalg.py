"""Exact linear algebra: row reduction, characteristic polynomials, root
scaling and the text form of polynomials."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

from merohecke.linalg import charpoly, poly_eval, poly_str, rref, scale_roots
from merohecke.qseries import LaurentSeries, as_coeff


def _ref_charpoly(a):
    # Faddeev-LeVerrier in Fraction arithmetic throughout
    d = len(a)
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        m = [[sum((a[i][t] * m[t][j] for t in range(d)), Fraction(0)) for j in range(d)]
             for i in range(d)]
        c = -sum(m[i][i] for i in range(d)) / k
        coeffs[d - k] = c
        for i in range(d):
            m[i][i] += c
    return [as_coeff(c) for c in coeffs]


def _typed(p):
    return [(type(x), x) for x in p]


# pairwise coprime denominators, two of them above 2^60
_BIG_DENS = (10 ** 9 + 7, 998244353, 2 ** 61 - 1, 3 ** 40, 5 ** 27)
_INTS = st.integers(-10 ** 6, 10 ** 6)
_SMALL_RATS = st.fractions(-50, 50, max_denominator=30)
_BIG_RATS = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.sampled_from(_BIG_DENS))
_ENTRIES = st.one_of(_INTS, _SMALL_RATS, _BIG_RATS)


def _square(entries, max_d):
    return st.integers(0, max_d).flatmap(
        lambda d: st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))


def _scalar(max_d):
    return st.tuples(st.integers(0, max_d), _ENTRIES).map(
        lambda dc: [[dc[1] if i == j else 0 for j in range(dc[0])] for i in range(dc[0])])


_MATRICES = st.one_of(
    _square(_INTS, 7),
    _square(_ENTRIES, 7),
    _square(_BIG_RATS, 5),
    st.integers(0, 7).map(lambda d: [[0] * d for _ in range(d)]),
    _scalar(7),
)


@settings(max_examples=150, deadline=None)
@given(a=_MATRICES)
@example(a=[])
@example(a=[[0]])
@example(a=[[Fraction(4, 2), 0], [0, Fraction(-3, 1)]])
@example(a=[[Fraction(1, 10 ** 9 + 7), Fraction(2, 998244353)],
            [Fraction(-5, 2 ** 61 - 1), Fraction(7, 3 ** 40)]])
@example(a=[[Fraction(5, 3) if i == j else 0 for j in range(7)] for i in range(7)])
def test_charpoly_matches_fraction_reference(a):
    assert _typed(charpoly(a)) == _typed(_ref_charpoly(a))


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(_square(_ENTRIES, 5), _scalar(5)),
       c=st.one_of(st.just(0), st.integers(-60, 60), _SMALL_RATS, _BIG_RATS))
@example(a=[[1, 2], [3, 4]], c=7)
@example(a=[[1, 2], [3, 4]], c=-3)
@example(a=[[Fraction(1, 2), 2], [3, Fraction(-4, 9)]], c=Fraction(-6, 5))
@example(a=[[1, 2], [3, 4]], c=0)
@example(a=[], c=5)
def test_scale_roots_is_charpoly_of_scaled_matrix(a, c):
    scaled = [[c * x for x in row] for row in a]
    assert _typed(charpoly(scaled)) == _typed(scale_roots(charpoly(a), c))
    assert _typed(charpoly(a, c)) == _typed(charpoly(scaled))


def _sympy_rref(rows):
    """sympy's reduced rows (zero rows dropped) and pivots, as int/Fraction."""
    red, pivots = sympy.Matrix(rows).rref()
    return ([[as_coeff(Fraction(int(x.p), int(x.q))) for x in red.row(i)]
             for i in range(len(pivots))], list(pivots))


_HUGE = st.integers(-2 ** 300, 2 ** 300)
_RREF_ENTRIES = st.one_of(
    st.just(0), st.integers(-9, 9), _HUGE, _SMALL_RATS, _BIG_RATS,
    st.builds(Fraction, _HUGE, st.integers(1, 2 ** 300)))


@st.composite
def _rref_matrices(draw):
    """Rational rows, some of them rational combinations of the others (so
    the rank falls short), with zero rows and zero columns mixed in."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_RREF_ENTRIES, min_size=ncols, max_size=ncols), max_size=6))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        weights = draw(st.lists(st.one_of(st.integers(-3, 3), _SMALL_RATS),
                                min_size=len(rows), max_size=len(rows)))
        combo = [as_coeff(sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0)))
                 for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    return [[0 if j in zero_cols else x for j, x in enumerate(r)] for r in rows]


@settings(max_examples=150, deadline=None)
@given(_rref_matrices())
@example([[0, 0, 0]])
@example([[0, Fraction(-3, 2)], [0, 0], [0, 6]])
@example([[-4, 6, 2], [2, -3, -1], [0, 0, 5]])
@example([[Fraction(2, 3), Fraction(-4, 9)], [Fraction(1, 3), Fraction(-2, 9)]])
@example([[2 ** 300, 3], [2 ** 299, 1], [7, Fraction(1, 2 ** 300)]])
def test_rref_matches_sympy(rows):
    red, pivots = rref(rows)
    want, want_pivots = _sympy_rref(rows)
    assert pivots == want_pivots
    assert [_typed(r) for r in red] == [_typed(r) for r in want]


def test_rref_of_empty_inputs():
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])


@settings(max_examples=100, deadline=None)
@given(p=st.lists(_RREF_ENTRIES, min_size=1, max_size=9),
       c=st.one_of(st.integers(-60, 60), _SMALL_RATS, _BIG_RATS).filter(bool))
@example(p=[5], c=Fraction(-7, 3))
@example(p=[0, 0, 4], c=Fraction(1, 2))
@example(p=[-20468736, -1080, 1], c=-2)
@example(p=[0], c=Fraction(-3, 10 ** 9 + 7))
def test_scale_roots_matches_fraction_evaluation(p, c):
    # c^d * p(x/c) at d + 1 points pins the scaled polynomial down
    d = len(p) - 1
    got = scale_roots(p, c)
    for x in range(d + 1):
        assert poly_eval(got, x) == Fraction(c) ** d * poly_eval(p, Fraction(x) / c)
    assert all(type(x) is int or x.denominator > 1 for x in got)


def test_poly_str_pinned():
    assert poly_str([]) == "0"
    assert poly_str([0, 0]) == "0"
    assert poly_str([3, 0, -1]) == "-x^2 + 3"
    assert poly_str([1, -2, -5]) == "-5*x^2 - 2*x + 1"
    assert poly_str([Fraction(-1, 2), 1, -1, Fraction(7, 3)]) == "7/3*x^3 - x^2 + x - 1/2"
    assert poly_str([0, 1]) == "x"
    assert poly_str([-4, -1]) == "-x - 4"
    assert poly_str([-20468736, -1080, 1]) == "x^2 - 1080*x - 20468736"
    assert poly_str([Fraction(3, 4), 0, 1]) == "x^2 + 3/4"


def test_series_text_shares_the_term_format():
    s = LaurentSeries(-2, [1, 0, Fraction(-1, 3), -1, 5], 3)
    assert str(s) == "q^-2 - 1/3 - q + 5*q^2 + O(q^3)"
    assert str(LaurentSeries(0, [0, 0], 2)) == "0 + O(q^2)"
