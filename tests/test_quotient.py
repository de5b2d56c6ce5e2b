"""Quotient Hecke modules: principal parts modulo the parts that extend to
weakly holomorphic forms, with the index-m operators acting exactly."""

from fractions import Fraction

import pytest

from merohecke.forms import CUSPIDAL, basis, hecke_charpoly_on_space
from merohecke.hecke import t_op
from merohecke.linalg import charpoly
from merohecke.meroforms import build
from merohecke.qseries import equals_to_precision
from merohecke.quotient import (
    MOD_M,
    MOD_S,
    QuotientClass,
    class_of,
    eigen_witness,
    hecke_on_principal_part,
    quotient_dimension,
    quotient_hecke_matrix,
    theorem_check,
)
from merohecke.whbasis import ObstructionWitness, PrincipalPart, j_polynomial_decompose

# classical tau values, standard tables
TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
       8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944}


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


# -- operator on principal parts ----------------------------------------

def test_hecke_on_pole_order_one():
    # q^-1 | T_m in weight w picks up the single term r = n = m:
    # the coefficient is m^(w-1), a genuine negative power for w < 0
    out = hecke_on_principal_part(PrincipalPart({1: 1}), -10, 2)
    assert out.terms == {2: Fraction(1, 2048)}
    assert out.constant == 0
    out = hecke_on_principal_part(PrincipalPart({1: 1}), -10, 3)
    assert out.terms == {3: Fraction(1, 3 ** 11)}


def test_hecke_on_pp_by_hand():
    # {2: 1, 1: 24} under T_2 in weight -10, term by term
    out = hecke_on_principal_part(PrincipalPart({2: 1, 1: 24}), -10, 2)
    assert out.terms == {
        4: Fraction(1, 2048),
        2: Fraction(24, 2048),
        1: 1,
    }


def test_hecke_on_constant():
    # the constant scales by sum of r^(w-1) over divisors of m
    out = hecke_on_principal_part(PrincipalPart({}, 7), -10, 2)
    assert out.terms == {}
    assert out.constant == 7 * (1 + Fraction(1, 2048))
    out = hecke_on_principal_part(PrincipalPart({}, 1), -10, 6)
    expect = sum(Fraction(1, r ** 11) for r in (1, 2, 3, 6))
    assert out.constant == expect


def test_hecke_on_pp_matches_series_route():
    # the combinatorial rule must agree with applying the operator to a
    # full expansion and reading the principal part back off
    g = build("g", 30).form
    pp = PrincipalPart.from_series(g.series)
    for m in (2, 3, 4, 5, 6):
        image = t_op(g.series, -10, m)
        want = PrincipalPart.from_series(image)
        assert hecke_on_principal_part(pp, -10, m) == want


def test_hecke_on_pp_positive_weight_route():
    # same consistency check in a different weight, with a synthetic pp
    pp = PrincipalPart({3: Fraction(5, 7), 1: -2}, 11)
    s = pp.to_series(40)
    for m in (2, 3, 5):
        want = PrincipalPart.from_series(t_op(s, -2, m))
        assert hecke_on_principal_part(pp, -2, m) == want


# -- classes and dimensions ---------------------------------------------

def test_quotient_dimensions():
    assert quotient_dimension(12, MOD_M) == 1
    assert quotient_dimension(12, MOD_S) == 2
    assert quotient_dimension(4, MOD_M) == 0
    assert quotient_dimension(4, MOD_S) == 1
    assert quotient_dimension(24, MOD_M) == 2
    assert quotient_dimension(24, MOD_S) == 3
    assert quotient_dimension(2, MOD_S) == 0


def test_class_of_against_delta():
    # pairing q^-n against the cusp space in weight 12 reads off tau(n)
    for n in range(1, 9):
        cls = class_of(PrincipalPart({n: 1}), 12, MOD_M)
        assert cls.coords == (TAU[n],)
        assert cls.weight2k == 12 and cls.kind == MOD_M


def test_class_of_against_e4():
    # dual space in weight 4 is spanned by E4 alone
    for n in (1, 2, 3, 5):
        cls = class_of(PrincipalPart({n: 1}), 4, MOD_S)
        assert cls.coords == (240 * sigma(3, n),)


def test_class_of_solvable_pp_is_zero():
    # {2: 1, 1: 24} is the principal part of an actual weight -10 form,
    # so its class in the holomorphic quotient vanishes
    cls = class_of(PrincipalPart({2: 1, 1: 24}), 12, MOD_M)
    assert cls.is_zero()
    # but not in the cuspidal quotient, where constants are obstructed too
    assert not class_of(PrincipalPart({2: 1, 1: 24}), 12, MOD_S).is_zero()


def test_kind_aliases():
    a = class_of(PrincipalPart({1: 1}), 12, "modM")
    b = class_of(PrincipalPart({1: 1}), 12, "modm!")
    assert a == b and a.kind == MOD_M
    assert class_of(PrincipalPart({1: 1}), 12, "mods").kind == MOD_S
    with pytest.raises(ValueError):
        class_of(PrincipalPart({1: 1}), 12, "modX")


def test_quotient_class_algebra():
    a = QuotientClass(12, MOD_M, [3])
    b = QuotientClass(12, MOD_M, [Fraction(1, 2)])
    assert (a - b).coords == (Fraction(5, 2),)
    assert a.scale(Fraction(1, 3)).coords == (1,)
    assert a == QuotientClass(12, MOD_M, (3,))
    assert hash(a) == hash(QuotientClass(12, MOD_M, (3,)))
    assert not a.is_zero() and (a - a).is_zero()
    with pytest.raises(ValueError):
        a - QuotientClass(12, MOD_S, [3, 0])
    with pytest.raises(AttributeError):
        a.coords = (5,)


# -- matrices ------------------------------------------------------------

def test_matrix_weight_12_holomorphic():
    assert quotient_hecke_matrix(12, MOD_M, 2) == [[Fraction(-3, 256)]]
    assert quotient_hecke_matrix(12, MOD_M, 3) == [[Fraction(28, 19683)]]
    # -3/256 = tau(2) / 2^11, 28/19683 = tau(3) / 3^11


def test_matrix_other_weights():
    # weight 16 cusp eigenvalue 216 = tau(2) + 240
    assert quotient_hecke_matrix(16, MOD_M, 2) == [[Fraction(27, 4096)]]
    # weight 4, full space: sigma_3(2) / 2^3
    assert quotient_hecke_matrix(4, MOD_S, 2) == [[Fraction(9, 8)]]


def test_matrix_empty_space():
    assert quotient_hecke_matrix(2, MOD_M, 2) == []
    assert quotient_hecke_matrix(4, MOD_M, 5) == []


@pytest.mark.parametrize("weight2k", [0, -2, -4, 1, 3, 5])
@pytest.mark.parametrize("kind", [MOD_M, MOD_S])
def test_matrix_rejects_weight_outside_domain(weight2k, kind):
    # weight 0: the class of q^-1 pairs to zero against the constants;
    # odd or negative weights have no quotient to act on
    with pytest.raises(ValueError, match="even and >= 2"):
        quotient_hecke_matrix(weight2k, kind, 2)
    with pytest.raises(ValueError, match="even and >= 2"):
        theorem_check(weight2k, kind, 2)
    with pytest.raises(ValueError, match="even and >= 2"):
        eigen_witness(weight2k, 2, 1, kind=kind)


def test_scaled_charpoly_weight_24():
    # two-dimensional case: after clearing the m^(1-2k) normalization the
    # matrix must carry the classical weight-24 Hecke charpoly
    q = quotient_hecke_matrix(24, MOD_M, 2)
    scaled = [[2 ** 23 * x for x in row] for row in q]
    assert charpoly(scaled) == [-20468736, -1080, 1]
    assert charpoly(scaled) == hecke_charpoly_on_space(24, CUSPIDAL, 2)


def test_charpoly_matches_sympy():
    import sympy  # test-only oracle; keep the module importable without it

    x = sympy.Symbol("x")
    checked = 0
    for weight2k in range(4, 30, 2):
        for kind in (MOD_M, MOD_S):
            for m in (2, 3, 5):
                q = quotient_hecke_matrix(weight2k, kind, m)
                if not q:
                    continue
                ref = sympy.Matrix(q).charpoly(x).all_coeffs()[::-1]
                assert charpoly(q) == [Fraction(int(c.p), int(c.q)) for c in ref], (
                    weight2k, kind, m)
                checked += 1
    assert checked == 63


@pytest.mark.parametrize("weight2k", [4, 6, 8, 10, 12, 14, 16, 20, 24, 26])
@pytest.mark.parametrize("kind", [MOD_M, MOD_S])
def test_theorem_small_grid(weight2k, kind):
    assert theorem_check(weight2k, kind, 2)
    assert theorem_check(weight2k, kind, 3)


def test_hecke_action_descends_to_classes():
    # T_n sends the class of q^-1 to n^(1-2k) times the class of q^-n
    for weight2k in (12, 24):
        w = 2 - weight2k
        for kind in (MOD_M, MOD_S):
            for n in range(1, 13):
                image = hecke_on_principal_part(PrincipalPart({1: 1}), w, n)
                lhs = class_of(image, weight2k, kind)
                rhs = class_of(PrincipalPart({n: 1}), weight2k, kind)
                assert lhs == rhs.scale(Fraction(1, n ** (weight2k - 1)))


# -- eigenvector witnesses ------------------------------------------------

def test_eigen_witness_t2():
    # tau(2) = -24 on the 1-dim weight-12 quotient; the witness form is
    # exactly 2^-11 times the weight -10 form with principal part q^-2 + 24 q^-1
    w = eigen_witness(12, 2, -24, precision=20)
    assert not isinstance(w, ObstructionWitness)
    assert w.weight == -10
    g = build("g", 20).form
    scaled = g * Fraction(1, 2048)
    assert equals_to_precision(w.series, scaled.series)[0]


def test_eigen_witness_t3():
    # for tau(3) = 252 the witness is 3^-11 (j - 768) g
    w = eigen_witness(12, 3, 252, precision=24)
    assert not isinstance(w, ObstructionWitness)
    g = build("g", 24).form
    unscaled = w * Fraction(3 ** 11)
    assert j_polynomial_decompose(unscaled, g) == [-768, 1]


def test_eigen_witness_wrong_eigenvalue():
    bad = eigen_witness(12, 2, 0, precision=12)
    assert isinstance(bad, ObstructionWitness)
    assert any(c != 0 for c in bad.vector)


def test_eigen_witness_needs_dim_one():
    with pytest.raises(ValueError):
        eigen_witness(24, 2, -1080)


def test_eigen_witness_explicit_kind():
    # weight 4 full-space quotient, eigenvalue sigma_3(2) = 9
    w = eigen_witness(4, 2, 9, kind=MOD_S, precision=16)
    assert not isinstance(w, ObstructionWitness)
    assert w.weight == -2
    pp = PrincipalPart.from_series(w.series)
    assert pp.terms == {2: Fraction(1, 8), 1: Fraction(-9, 8)}
    assert pp.constant == 0


def test_eigen_witness_reapplication():
    # drive the witness identity end to end: T_2 minus the scaled eigenvalue
    # applied to q^-1 has the witness principal part
    w = eigen_witness(12, 2, -24, precision=20)
    lam = Fraction(-24, 2 ** 11)
    diff = hecke_on_principal_part(PrincipalPart({1: 1}), -10, 2) \
        - PrincipalPart({1: 1}).scale(lam)
    got = PrincipalPart.from_series(w.series)
    # the constant term of the witness is a free holomorphic value, only
    # the genuine pole orders are pinned
    assert got.terms == diff.terms


def test_quotient_matrix_independent_of_basis_choice():
    # conjugating the theorem through the coordinate matrix: eigenvalues of
    # the quotient matrix times m^(2k-1) are the dual-space eigenvalues
    cusp16 = basis(16, CUSPIDAL, 20)
    assert len(cusp16) == 1
    q = quotient_hecke_matrix(16, MOD_M, 3)
    got = q[0][0] * Fraction(3) ** 15
    # read the eigenvalue off the unique normalized cusp form rather than
    # trusting memory for tau_16(3)
    f3 = cusp16[0].series.coefficient(3)
    assert got == f3
