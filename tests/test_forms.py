"""Classical level-one forms: Eisenstein series, delta, j, bases, Hecke
matrices on holomorphic spaces."""

import functools
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from merohecke import forms, linalg
from merohecke.qseries import LaurentSeries, compare
from merohecke.forms import (
    CUSPIDAL,
    HOLOMORPHIC,
    FormBasis,
    ModularForm,
    basis,
    bernoulli,
    clear_cache,
    delta,
    dim_cusp,
    dim_modular,
    dimension,
    eisenstein,
    hecke_charpoly_on_space,
    hecke_matrix_on_space,
    j_function,
    sigma,
)
from merohecke.whbasis import wh_slice_basis

# classical tau values, standard tables
TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
       8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944}


def test_bernoulli_values():
    # textbook values
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(3) == 0


def test_bernoulli_matches_sympy():
    import sympy  # test-only oracle; keep the module importable without it

    for k in range(61):
        ref = sympy.bernoulli(k)
        # sympy >= 1.12 takes B_1 = +1/2; this library uses B_1 = -1/2
        if k == 1:
            ref = -ref
        assert bernoulli(k) == Fraction(int(ref.p), int(ref.q)), k


def test_sigma_values():
    # direct divisor sums
    assert sigma(3, 6) == 1 + 8 + 27 + 216
    assert sigma(5, 5) == 1 + 3125
    assert sigma(5, 7) == 1 + 16807
    assert sigma(0, 12) == 6
    assert sigma(1, 1) == 1


def test_eisenstein_normalizations():
    e4 = eisenstein(4, 6)
    e6 = eisenstein(6, 6)
    assert e4.coefficient(0) == 1
    # E4 = 1 + 240 sum sigma_3(n) q^n, E6 = 1 - 504 sum sigma_5(n) q^n
    for n in range(1, 6):
        assert e4.coefficient(n) == 240 * sigma(3, n)
        assert e6.coefficient(n) == -504 * sigma(5, n)
    e12 = eisenstein(12, 4)
    assert e12.coefficient(1) == Fraction(65520, 691)


def test_eisenstein_weight_two_expansion():
    # quasi-modular E2 still has the standard expansion 1 - 24 sum sigma_1
    e2 = eisenstein(2, 5)
    for n in range(1, 5):
        assert e2.coefficient(n) == -24 * sigma(1, n)


def test_eisenstein_rejects_bad_weight():
    with pytest.raises(ValueError):
        eisenstein(5, 4)
    with pytest.raises(ValueError):
        eisenstein(0, 4)


def _trial_sigma(r, n):
    return sum(d ** r for d in range(1, n + 1) if n % d == 0)


def _typed(coeffs):
    return [(type(c), c) for c in coeffs]


@pytest.mark.parametrize("precision", [1, 2, 50, 600])
@pytest.mark.parametrize("weight", [2, 4, 6, 8, 10, 12, 14, 16])
def test_eisenstein_matches_divisor_sums(weight, precision):
    # the sieve-built series against a trial-division reference and sympy,
    # value and type: int when integral, Fraction otherwise
    from sympy import divisor_sigma  # test-only oracle

    clear_cache()
    got = eisenstein(weight, precision).series
    assert (got.val, got.prec) == (0, precision)
    factor = Fraction(-2 * weight) / bernoulli(weight)
    ref = [Fraction(1)] + [factor * _trial_sigma(weight - 1, n) for n in range(1, precision)]
    ref = [c.numerator if c.denominator == 1 else c for c in ref]
    assert _typed(got.coeffs) == _typed(ref)
    assert all(int(divisor_sigma(n, weight - 1)) * factor == got.coefficient(n)
               for n in range(1, precision))


@pytest.mark.parametrize("precision", [2, 3, 50, 600])
def test_delta_matches_euler_product(precision):
    # Jacobi's eta^3 route against q * prod (1 - q^n)^24 by pentagonal
    # numbers and a 24th power
    clear_cache()
    got = delta(precision).series
    n = precision - 1
    euler = [0] * n
    for k in range(-n, n + 1):
        g = k * (3 * k - 1) // 2
        if 0 <= g < n:
            euler[g] += (-1) ** (k % 2)
    ref = (LaurentSeries(0, euler, n) ** 24).shift(1)
    assert got == ref
    assert all(type(c) is int for c in got.coeffs)


def test_delta_tau_values():
    d = delta(13)
    for n, t in TAU.items():
        assert d.coefficient(n) == t
    assert d.series.val == 1


def test_delta_dual_construction():
    # (E4^3 - E6^2)/1728 is an independent route to the same expansion
    p = 40
    e4 = eisenstein(4, p)
    e6 = eisenstein(6, p)
    alt = (e4 ** 3 - e6 ** 2) * Fraction(1, 1728)
    d = delta(p)
    assert alt.weight == 12
    window, mismatch = compare(alt.series, d.series)
    assert mismatch is None and window[1] >= 38


def test_j_expansion():
    j = j_function(4)
    assert j.series.val == -1
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760
    assert j.coefficient(3) == 864299970
    assert j.weight == 0


def test_dimensions():
    # the 2k/12 dimension pattern
    assert dim_modular(0) == 1
    assert dim_modular(2) == 0
    assert dim_modular(4) == 1
    assert dim_modular(12) == 2
    assert dim_modular(14) == 1
    assert dim_modular(24) == 3
    assert dim_cusp(12) == 1
    assert dim_cusp(24) == 2
    assert dim_cusp(10) == 0
    assert dim_cusp(26) == 1
    assert dimension(12, CUSPIDAL) == 1
    assert dimension(12, HOLOMORPHIC) == 2
    for w in range(-30, 201):
        assert dim_cusp(w) == dim_modular(w - 12), w


def test_basis_echelon_property():
    for weight in (4, 12, 16, 24, 28):
        for kind in (HOLOMORPHIC, CUSPIDAL):
            d = dimension(weight, kind)
            if d == 0:
                continue
            fb = basis(weight, kind, 16)
            start = 0 if kind == HOLOMORPHIC else 1
            assert fb.leading == tuple(range(start, start + d))
            for i, f in enumerate(fb):
                for e in fb.leading:
                    expected = 1 if e == start + i else 0
                    assert f.coefficient(e) == expected


def test_modular_form_weight_bookkeeping():
    e4 = eisenstein(4, 8)
    e6 = eisenstein(6, 8)
    assert (e4 * e6).weight == 10
    assert (e4 ** 3).weight == 12
    assert (e4 / e6).weight == -2
    with pytest.raises(ValueError):
        e4 + e6


def test_hecke_matrix_weight_12():
    mat = hecke_matrix_on_space(12, CUSPIDAL, 2)
    # tau(2) = -24
    assert mat == [[-24]]
    cp = hecke_charpoly_on_space(12, CUSPIDAL, 2)
    assert cp == [24, 1]


def test_hecke_matrix_eisenstein_eigenvalue():
    # E_2k | T_m = sigma_{2k-1}(m) E_2k: the full-space matrix has
    # sigma as an eigenvalue; in weight < 12 the space is 1-dim
    mat = hecke_matrix_on_space(8, HOLOMORPHIC, 3)
    assert mat == [[sigma(7, 3)]]


def test_hecke_charpoly_weight_24():
    # S_24 is 2-dimensional; T_2 has trace 1080 and determinant -20468736
    # classical newform data: a_2 = 540 +- 12*sqrt(144169)
    cp = hecke_charpoly_on_space(24, CUSPIDAL, 2)
    assert cp == [-20468736, -1080, 1]


def test_hecke_matrices_commute():
    a = hecke_matrix_on_space(24, CUSPIDAL, 2)
    b = hecke_matrix_on_space(24, CUSPIDAL, 3)
    assert linalg.mat_mul(a, b) == linalg.mat_mul(b, a)


def test_hecke_matrix_multiplicative():
    # T_6 = T_2 T_3 for coprime indices
    a = hecke_matrix_on_space(28, CUSPIDAL, 2)
    b = hecke_matrix_on_space(28, CUSPIDAL, 3)
    ab = hecke_matrix_on_space(28, CUSPIDAL, 6)
    assert linalg.mat_mul(a, b) == ab


def test_cache_consistency_across_precisions():
    clear_cache()
    lo = delta(6)
    hi = delta(30)
    assert hi.series.truncate(6) == lo.series.truncate(6)
    lo2 = delta(6)
    assert lo2.series == lo.series.truncate(lo2.series.prec)


def _basis_state(fb):
    return (fb.weight, fb.kind, fb.leading,
            [(f.weight, f.series.val, f.series.prec, f.series.coeffs) for f in fb])


@st.composite
def precision_sequences(draw, lowest):
    """Requests at or above the lowest valid precision: rising, falling,
    repeated, or in any order."""
    ps = draw(st.lists(st.integers(lowest, lowest + 40), min_size=1, max_size=4))
    order = draw(st.sampled_from(["rising", "falling", "repeated", "any"]))
    if order == "rising":
        ps.sort()
    elif order == "falling":
        ps.sort(reverse=True)
    elif order == "repeated":
        ps = [ps[0]] * len(ps)
    return ps


def assert_memo_matches_fresh_builds(request, key, precisions):
    fresh = {}
    for p in set(precisions):
        clear_cache()
        fresh[p] = _basis_state(request(p))
    clear_cache()
    for p in precisions:
        assert _basis_state(request(p)) == fresh[p], p
    assert key in forms._cache
    clear_cache()
    assert key not in forms._cache
    assert not forms._cache


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(2, 40), st.sampled_from([HOLOMORPHIC, CUSPIDAL]))
def test_memoized_basis_matches_fresh_build(data, half_weight, kind):
    weight = 2 * half_weight
    d = dimension(weight, kind)
    if d == 0:
        assert basis(weight, kind, 5).elements == ()
        return
    s = 0 if kind == HOLOMORPHIC else 1
    precisions = data.draw(precision_sequences(s + d + 1))
    assert_memo_matches_fresh_builds(lambda p: basis(weight, kind, p),
                                     ("basis", weight, s), precisions)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(-17, 0), st.integers(0, 12))
def test_memoized_wh_slice_basis_matches_fresh_build(data, half_weight, max_pole):
    weight = 2 * half_weight
    d = dim_modular(weight + 12 * max_pole)
    if d == 0:
        assert wh_slice_basis(weight, max_pole, 5).elements == ()
        return
    # delta^-max_pole * M_(weight+12*max_pole); max_pole = 0 shares the M entry
    key = ("basis", weight, -max_pole)
    precisions = data.draw(precision_sequences(-max_pole + d + 1))
    assert_memo_matches_fresh_builds(lambda p: wh_slice_basis(weight, max_pole, p),
                                     key, precisions)


@functools.lru_cache(maxsize=None)
def _reference_power(weight, n):
    # E_weight^n on [0, 73), past every window of the reference test below
    return eisenstein(weight, 73).series ** n


@functools.lru_cache(maxsize=None)
def _reference_product(b, c):
    # E4^b * E6^c on [0, 73), built once and truncated for every window
    return _reference_power(4, b) * _reference_power(6, c)


def _reference_monomials(weight, precision):
    # E4^b * E6^c with 4b + 6c = weight, each on [0, precision)
    span = []
    for c in range(weight // 6 + 1):
        b, rest = divmod(weight - 6 * c, 4)
        if not rest:
            span.append(ModularForm(weight, _reference_product(b, c).truncate(precision)))
    return span


def _reference_echelon(span, weight, kind, start, precision):
    red, pivots = linalg.rref([[f.coefficient(n) for n in range(start, precision)]
                               for f in span])
    elements = tuple(ModularForm(weight, LaurentSeries(start, row, precision)) for row in red)
    return kind, elements, tuple(start + p for p in pivots)


def _reference_basis(weight, kind, precision):
    """M_w from its monomials, S_w as delta * M_(w-12), each echelonized."""
    if kind == HOLOMORPHIC:
        return _reference_echelon(_reference_monomials(weight, precision),
                                  weight, kind, 0, precision)
    span = [delta(precision) * g for g in _reference_monomials(weight - 12, precision)]
    span = [ModularForm(weight, f.series.truncate(precision)) for f in span]
    return _reference_echelon(span, weight, kind, 1, precision)


def _reference_slice(weight, a, precision):
    """delta^-a * M_(w+12a), echelonized from q^-a; a = 0 is M_w."""
    if a == 0:
        return ("wh",) + _reference_basis(weight, HOLOMORPHIC, precision)[1:]
    dinv_pow = delta(precision + a + 1).series.invert().pow(a).truncate(precision)
    span = [ModularForm(weight, h.series.mul(dinv_pow).truncate(precision))
            for h in _reference_monomials(weight + 12 * a, precision + a)]
    return _reference_echelon(span, weight, "wh", -a, precision)


def test_bases_match_reference_constructions():
    # every basis is delta^e * M_(w-12e): e = 0 for M, 1 for S, -a for the
    # slice with poles of order <= a; compare against each space's own
    # construction at the least valid precision and at 60
    clear_cache()
    for weight in range(-40, 121, 2):
        cases = [(kind, 0 if kind == HOLOMORPHIC else 1, basis, kind)
                 for kind in (HOLOMORPHIC, CUSPIDAL)]
        cases += [(a, -a, wh_slice_basis, None) for a in range(13)]
        for arg, e, request, kind in cases:
            d = dim_modular(weight - 12 * e)
            for p in sorted({e + d + 1, 60}):
                fb = request(weight, arg, p)
                want = (_reference_basis(weight, kind, p) if kind
                        else _reference_slice(weight, arg, p))
                assert (fb.kind, fb.elements, fb.leading) == want, (weight, arg, p)
    clear_cache()
    _reference_product.cache_clear()


@st.composite
def unitriangular_spans(draw):
    """(span, e, precision): span[j] = q^(e+j) + ... on [e+j, precision) with
    int coefficients of up to 300 bits, zeros included."""
    d, e = draw(st.integers(1, 8)), draw(st.integers(-5, 5))
    precision = e + d + draw(st.integers(0, 10))
    coeff = st.one_of(st.just(0), st.integers(-2 ** 300, 2 ** 300))
    span = [LaurentSeries(e + j, [1] + draw(st.lists(coeff, min_size=precision - e - j - 1,
                                                        max_size=precision - e - j - 1)), precision)
            for j in range(d)]
    return span, e, precision


@settings(max_examples=100, deadline=None)
@given(unitriangular_spans())
def test_echelonize_matches_rref_on_unitriangular_spans(case):
    span, e, precision = case
    rows = forms.echelonize(span, e, precision)
    want, pivots = linalg.rref([[f.coefficient(n) for n in range(e, precision)] for f in span])
    assert rows == want
    assert pivots == list(range(len(span)))
    assert all(type(c) is int for row in rows for c in row)


@pytest.mark.parametrize("weight, e", [(-10, -12), (120, 1), (0, -3), (26, 0), (-40, -4)])
def test_cold_basis_on_warm_powers_takes_no_rref(monkeypatch, weight, e):
    # with E4^a and delta^n in the memo, a basis build is at most two
    # products per element plus back-substitution
    def request():
        return basis(weight, CUSPIDAL, 60) if e == 1 else wh_slice_basis(weight, -e, 60)

    clear_cache()
    want = _basis_state(request())
    del forms._cache[("basis", weight, e)]
    calls = {"rref": 0, "mul": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    monkeypatch.setattr(LaurentSeries, "mul", counted("mul", LaurentSeries.mul))
    assert _basis_state(request()) == want
    assert calls["rref"] == 0
    assert calls["mul"] <= 2 * dim_modular(weight - 12 * e)
    clear_cache()


def test_cache_thread_smoke():
    clear_cache()
    out = []

    def work():
        out.append(delta(25).coefficient(12))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert out == [TAU[12]] * 8


def test_form_basis_immutable():
    fb = basis(12, CUSPIDAL, 8)
    with pytest.raises(AttributeError):
        fb.weight = 10
    with pytest.raises(AttributeError):
        eisenstein(4, 4).weight = 6
