"""Hecke action on principal parts and the induced finite-dimensional
quotient modules.

Negative-weight weakly holomorphic forms modulo those with vanishing
principal part carry a Hecke action that only sees the principal part.
Two quotients are implemented: classes modulo forms with free constant
term ("modM!", dual to the cusp space in weight 2k) and classes modulo
zero-constant-term forms ("modS!", dual to the full holomorphic space).
For even 2k >= 2 the classes of q^-1 .. q^-d are a basis; on them T_m is
the exact d x d matrix Q = C^-1 U, C and U the pairings of q^-i and T_m q^-i
with the reduced dual basis f_j.  theorem_check is the paper's isomorphism
as the adjointness C * m^(2k-1) Q = T, T[j][i] the q^i coefficient of T_m f_j,
on two routes: quotient_hecke_matrix reads U off the f_j by T_m's rule on
q^-i, and intertwines applies hecke.t_op to the f_j.
quotient_hecke_matrix, theorem_check and eigen_witness refuse any other
weight with ValueError: in weight 0 the class of q^-1 pairs to zero
against the constants, and odd or negative weights have no quotient.
"""

from math import lcm

from .qseries import Value, as_coeff, ratio
from . import forms, hecke, linalg, whbasis
from .forms import HOLOMORPHIC, CUSPIDAL
from .hecke import weight_power
from .whbasis import PrincipalPart


MOD_M = "modM!"
MOD_S = "modS!"

_KIND_ALIASES = {
    MOD_M: MOD_M, "modM": MOD_M, "modm!": MOD_M, "modm": MOD_M,
    MOD_S: MOD_S, "modS": MOD_S, "mods!": MOD_S, "mods": MOD_S,
}


class SingularCoordinateMatrix(Exception):
    """The pairing coordinates of q^-1 .. q^-d failed to be invertible;
    indicates an internal inconsistency, not a property of the input."""


def _canon_kind(kind):
    k = _KIND_ALIASES.get(kind)
    if k is None:
        raise ValueError("kind must be %r or %r" % (MOD_M, MOD_S))
    return k


def _dual_space(kind):
    # classes mod free-constant forms pair against cusp forms; classes mod
    # zero-constant forms pair against the full holomorphic space
    return CUSPIDAL if kind == MOD_M else HOLOMORPHIC


def _check_weight2k(weight2k):
    if weight2k < 2 or weight2k % 2:
        raise ValueError("weight2k must be even and >= 2, got %d" % weight2k)


def quotient_dimension(weight2k, kind):
    return forms.dimension(weight2k, _dual_space(_canon_kind(kind)))


def hecke_on_principal_part(pp, weight, m):
    """Principal part of (f | T_m) for any f of the given weight whose
    principal part is pp; well defined because the operator cannot move
    positive-index terms into the pole part or the constant.  On the window
    [-max_pole, 1) the index-m operator yields exactly the pole terms and
    the constant."""
    return PrincipalPart.from_series(hecke.t_op(pp.to_series(1), weight, m))


class QuotientClass(Value):
    """Coordinates of a principal part in the quotient, written against the
    echelon dual basis."""

    __slots__ = ("weight2k", "kind", "coords")

    def __init__(self, weight2k, kind, coords):
        super().__init__(weight2k, _canon_kind(kind), tuple(coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def scale(self, c):
        c = as_coeff(c)
        return QuotientClass(self.weight2k, self.kind, [c * x for x in self.coords])

    def __sub__(self, other):
        if (self.weight2k, self.kind) != (other.weight2k, other.kind):
            raise ValueError("classes live in different quotients")
        return QuotientClass(self.weight2k, self.kind,
                             [a - b for a, b in zip(self.coords, other.coords)])

    def __repr__(self):
        return "QuotientClass(%d, %s, %s)" % (self.weight2k, self.kind, list(self.coords))


def class_of(pp, weight2k, kind):
    """Class of a weight (2-2k) principal part in the chosen quotient: the
    obstruction pairing against the dual space is a complete invariant."""
    kind = _canon_kind(kind)
    vec = whbasis.obstruction(2 - weight2k, pp, _dual_space(kind))
    return QuotientClass(weight2k, kind, vec)


def quotient_hecke_matrix(weight2k, kind, m):
    """Exact matrix of the index-m Hecke operator on the quotient, in the
    basis of the classes of q^-1 .. q^-d; weight2k must be even and >= 2,
    and m >= 1."""
    kind = _canon_kind(kind)
    _check_weight2k(weight2k)
    if m < 1:
        raise ValueError("operator index must be >= 1")
    d = quotient_dimension(weight2k, kind)
    if d == 0:
        return []
    # class_of's coordinates from one dual basis; T_m q^-d has a pole of order d m
    fb = forms._basis_through(weight2k, _dual_space(kind), d * m)
    # q^-i | T_m = sum over t | gcd(m, i) of (m/t)^(1-2k) q^(-i m/t^2), so with
    # s = m^(2k-1), s U[j][i] = s <T_m q^-i, f_j> = sum of t^(2k-1) f_j(i m/t^2)
    s = weight_power(m, weight2k)
    steps = [(t, weight_power(t, weight2k)) for t in hecke.divisors(m)]
    su = [[sum([p * f.coefficient(i * m // (t * t)) for t, p in steps if i % t == 0])
           for i in range(1, d + 1)] for f in fb]
    if kind == MOD_M:
        return [[ratio(x, s) for x in row] for row in su]
    # Q = C^-1 U.  S leads at 1..d, so C = I; M leads at 0..d-1, so C x = u
    # is x_d = u_0 / f_0(d) and x_i = u_i - f_i(d) x_d, f_j(d) being ints,
    # here over the one denominator f_0(d) s
    r = [f.coefficient(d) for f in fb]
    if r[0] == 0:
        raise SingularCoordinateMatrix(
            "classes of q^-1 .. q^-%d are not independent in weight 2k=%d %s"
            % (d, weight2k, kind))
    den = r[0] * s
    return ([[ratio(r[0] * x - ri * x0, den) for x, x0 in zip(row, su[0])]
             for ri, row in zip(r[1:], su[1:])]
            + [[ratio(x0, den) for x0 in su[0]]])


def scaled_charpoly(q, weight2k, m):
    """charpoly(m^(2k-1) * q), the index-m quotient matrix q in weight 2k
    scaled to the normalization of the dual space."""
    return linalg.charpoly(q, weight_power(m, weight2k))


def intertwines(q, weight2k, kind, m):
    """C * m^(2k-1) q == T for the index-m matrix q in weight 2k, the adjointness
    m^(2k-1) <T_m q^-i, f_j> = <q^-i, T_m f_j>: C[j][i] and T[j][i] are the q^i
    coefficients of f_j and T_m f_j (by hecke.t_op), i = 1 .. d, f_j the reduced
    dual basis; compared in integers as C * (m^(2k-1) L q) == L T, L the lcm of
    q's denominators."""
    fb = forms._basis_through(weight2k, _dual_space(_canon_kind(kind)), len(q) * m)
    images = [hecke.t_op(f.series, weight2k, m) for f in fb]
    den = lcm(*(x.denominator for row in q for x in row))
    c = [[f.coefficient(i) for i in range(1, len(fb) + 1)] for f in fb]
    lt = [[den * g.coefficient(i) for i in range(1, len(fb) + 1)] for g in images]
    s = weight_power(m, weight2k)
    sq = [[s * (den // x.denominator) * x.numerator for x in row] for row in q]
    return linalg.mat_mul(c, sq) == lt


def theorem_check(weight2k, kind, m):
    """The paper's theorem for T_m in weight 2k, by intertwines."""
    return intertwines(quotient_hecke_matrix(weight2k, kind, m), weight2k, kind, m)


def eigen_witness(weight2k, m, eigenvalue, kind=None, precision=24):
    """On a one-dimensional quotient, the class of q^-1 is an eigenvector of
    the index-m operator with the given scaled eigenvalue; realize the
    witness identity (q^-1 class) | T_m - m^(1-2k) * eigenvalue * (q^-1 class)
    = 0 as an explicit weakly holomorphic form with that principal part.

    Returns the ModularForm witness, or the ObstructionWitness if the
    eigenvalue is wrong."""
    _check_weight2k(weight2k)
    if kind is None:
        kinds = [k for k in (MOD_M, MOD_S) if quotient_dimension(weight2k, k) == 1]
        if not kinds:
            raise ValueError(
                "no one-dimensional quotient in weight 2k=%d; pass kind=" % weight2k)
        kind = kinds[0]
    else:
        kind = _canon_kind(kind)
    w = 2 - weight2k
    pp1 = PrincipalPart({1: 1})
    lam = as_coeff(eigenvalue) * weight_power(m, w)
    diff = hecke_on_principal_part(pp1, w, m) - pp1.scale(lam)
    in_s_shriek = kind == MOD_S
    return whbasis.solve_principal_part(w, diff, in_s_shriek, precision)
