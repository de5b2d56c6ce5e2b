"""Hecke action on principal parts and the induced finite-dimensional
quotient modules.

Negative-weight weakly holomorphic forms modulo those with vanishing
principal part carry a Hecke action that only sees the principal part.
Two quotients are implemented: classes modulo forms with free constant
term ("modM!", dual to the cusp space in weight 2k) and classes modulo
zero-constant-term forms ("modS!", dual to the full holomorphic space).
For even 2k >= 2 the classes of q^-1 .. q^-d are a basis; the index-m
action on them is an exact d x d rational matrix Q, found by one row
reduction.  The paper's normalization is written once, in scaled_charpoly:
charpoly(m^(2k-1) * Q), read off charpoly(Q) by linalg.scale_roots, which
matches_dual compares exactly with the classical charpoly on the dual space.
quotient_hecke_matrix, theorem_check and eigen_witness refuse any other
weight with ValueError: in weight 0 the class of q^-1 pairs to zero
against the constants, and odd or negative weights have no quotient.
"""

from fractions import Fraction

from .qseries import as_coeff
from . import forms, hecke, linalg, whbasis
from .forms import HOLOMORPHIC, CUSPIDAL
from .whbasis import PrincipalPart, ObstructionWitness


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


class QuotientClass:
    """Coordinates of a principal part in the quotient, written against the
    echelon dual basis."""

    __slots__ = ("weight2k", "kind", "coords")

    def __init__(self, weight2k, kind, coords):
        object.__setattr__(self, "weight2k", weight2k)
        object.__setattr__(self, "kind", _canon_kind(kind))
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientClass is immutable")

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

    def __eq__(self, other):
        if not isinstance(other, QuotientClass):
            return NotImplemented
        return (self.weight2k == other.weight2k and self.kind == other.kind
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.weight2k, self.kind, self.coords))

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
    basis of the classes of q^-1 .. q^-d; weight2k must be even and >= 2."""
    kind = _canon_kind(kind)
    _check_weight2k(weight2k)
    w = 2 - weight2k
    d = quotient_dimension(weight2k, kind)
    if d == 0:
        return []
    cols = []
    coord_cols = []
    for i in range(1, d + 1):
        pp = PrincipalPart({i: 1})
        coord_cols.append(class_of(pp, weight2k, kind).coords)
        image = hecke_on_principal_part(pp, w, m)
        cols.append(class_of(image, weight2k, kind).coords)
    # express image coordinates back in the q^-i class basis: the coordinate
    # vectors are the columns of C and U, and reducing [C | U] leaves [I | C^-1 U]
    red, pivots = linalg.rref(list(zip(*coord_cols, *cols)))
    if pivots[:d] != list(range(d)):
        raise SingularCoordinateMatrix(
            "classes of q^-1 .. q^-%d are not independent in weight 2k=%d %s"
            % (d, weight2k, kind))
    return [row[d:] for row in red]


def scaled_charpoly(q, weight2k, m):
    """charpoly(m^(2k-1) * q), the index-m quotient matrix q in weight 2k
    scaled to the normalization of the dual space."""
    return linalg.scale_roots(linalg.charpoly(q), m ** (weight2k - 1))


def matches_dual(scaled_cp, weight2k, kind, m):
    """Whether scaled_cp is exactly the charpoly of T_m on the dual space."""
    dual = _dual_space(_canon_kind(kind))
    return scaled_cp == forms.hecke_charpoly_on_space(weight2k, dual, m)


def theorem_check(weight2k, kind, m):
    """charpoly(m^(2k-1) * quotient matrix) against the charpoly of the
    index-m operator on the dual space; exact equality."""
    q = quotient_hecke_matrix(weight2k, kind, m)
    return matches_dual(scaled_charpoly(q, weight2k, m), weight2k, kind, m)


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
    lam = as_coeff(eigenvalue) * Fraction(1, m ** (weight2k - 1))
    diff = hecke_on_principal_part(pp1, w, m) - pp1.scale(lam)
    in_s_shriek = kind == MOD_S
    return whbasis.solve_principal_part(w, diff, in_s_shriek, precision)
