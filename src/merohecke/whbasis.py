"""Weakly holomorphic forms: pole-bounded echelon bases, principal parts,
the obstruction pairing, and the principal-part solver.

A principal part prescribes the coefficients of q^-r for r >= 1 plus a
constant term.  Whether a weakly holomorphic form with that principal part
exists is decided by pairing against an echelon basis of the dual weight
2 - w: the cusp space for forms with free constant term ("M-shriek"), the
full holomorphic space for forms required to have zero constant term
("S-shriek").  A vanishing pairing vector is equivalent to solvability,
and the solver then writes the form down as sum pp(-n) * f_n over a
reduced pole-bounded basis, the shape of Duke and Jenkins (Pure Appl.
Math. Q. 4, 2008).  The dual bases and the pole-bounded ones come from
the one builder in forms: delta^e * M_(w-12e) reduced from q^e, with
e = -a for poles of order at most a.
"""

import itertools
from fractions import Fraction
from math import lcm

from .qseries import Immutable, LaurentSeries, InsufficientPrecision, as_coeff, compare, ratio
from . import forms
from .forms import ModularForm, HOLOMORPHIC, CUSPIDAL


class NonUniqueSolution(Exception):
    """The requested weight admits holomorphic cusp forms, so a principal
    part no longer pins down a unique solution."""


class NotPolynomialInJ(Exception):
    pass


class PrincipalPart(Immutable):
    """Finite prescription {r: coefficient of q^-r, r >= 1} plus a constant
    term.  Zero entries are dropped."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms=None, constant=0):
        clean = {}
        for r, c in (terms or {}).items():
            r = int(r)
            if r < 1:
                raise ValueError("pole orders must be >= 1; use constant= for the q^0 term")
            c = as_coeff(c)
            if c:
                clean[r] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "constant", as_coeff(constant))

    @classmethod
    def from_series(cls, s):
        """Read the nonpositive-index part off a series whose window reaches
        past the constant term."""
        if s.prec < 1:
            raise InsufficientPrecision("window ends at %d, constant term unknown" % s.prec)
        terms = {-n: c for n, c in s.coeff_items() if n < 0}
        return cls(terms, s.coefficient(0))

    @property
    def max_pole(self):
        return max(self.terms) if self.terms else 0

    def coefficient(self, r):
        if r == 0:
            return self.constant
        return self.terms.get(r, 0)

    def items(self):
        return sorted(self.terms.items())

    def is_zero(self):
        return not self.terms and self.constant == 0

    def to_series(self, precision):
        mapping = {-r: c for r, c in self.terms.items()}
        if self.constant:
            mapping[0] = self.constant
        val = -self.max_pole
        return LaurentSeries.from_coeff_map(mapping, precision, valuation=val)

    def scale(self, c):
        c = as_coeff(c)
        return PrincipalPart({r: c * v for r, v in self.terms.items()}, c * self.constant)

    def __add__(self, other):
        terms = dict(self.terms)
        for r, c in other.terms.items():
            terms[r] = terms.get(r, 0) + c
        return PrincipalPart(terms, self.constant + other.constant)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, PrincipalPart):
            return NotImplemented
        return self.terms == other.terms and self.constant == other.constant

    def __hash__(self):
        return hash((tuple(sorted(self.terms.items())), self.constant))

    def __repr__(self):
        parts = ["%s*q^-%d" % (c, r) for r, c in sorted(self.terms.items(), reverse=True)]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return "PrincipalPart(%s)" % " + ".join(parts)


class ObstructionWitness(Immutable):
    """Nonzero pairing vector certifying that no form with the requested
    principal part exists; indexed by the echelon dual basis."""

    __slots__ = ("weight", "dual_kind", "vector")

    def __init__(self, weight, dual_kind, vector):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "dual_kind", dual_kind)
        object.__setattr__(self, "vector", tuple(vector))

    def is_zero(self):
        return all(c == 0 for c in self.vector)

    def __repr__(self):
        return "ObstructionWitness(weight=%d, dual=%s, vector=%s)" % (
            self.weight, self.dual_kind, list(self.vector))


def wh_slice_basis(weight, max_pole, precision):
    """Reduced echelon basis of the weight-w weakly holomorphic forms with
    pole order at most max_pole at the cusp: delta^-max_pole times the
    holomorphic space of weight w + 12*max_pole.  Element n is q^n + ...
    with 0 at every other leading index.  Window [-max_pole, precision) on
    every element; built and memoized by forms._echelon_basis, so
    max_pole = 0 shares the entry of forms.basis(weight, "M", precision)."""
    if weight % 2:
        raise ValueError("weight must be even")
    if max_pole < 0:
        raise ValueError("max_pole must be >= 0")
    return forms._echelon_basis(weight, -max_pole, precision, "wh")


_DUAL_KINDS = {
    "cusp": CUSPIDAL, CUSPIDAL: CUSPIDAL,
    "holomorphic": HOLOMORPHIC, HOLOMORPHIC: HOLOMORPHIC,
}


def obstruction(weight, pp, dual_kind):
    """Pairing vector of a weight-w principal part against the echelon basis
    of the weight (2-w) dual space, fetched at the precision pp needs (see
    pairing)."""
    kind = _DUAL_KINDS.get(dual_kind)
    if kind is None:
        raise ValueError("dual kind must be 'cusp' or 'holomorphic'")
    return pairing(pp, forms._basis_through(2 - weight, kind, pp.max_pole))


def pairing(pp, fb):
    """Pairing vector of a principal part against the basis fb, whose
    windows reach past pp.max_pole; entry i is
    sum_r pp(r) * c_i(r) + pp(0) * c_i(0), summed in integers over the lcm
    of pp's denominators and divided by it once."""
    items = [(0, pp.constant), *pp.terms.items()]
    den = lcm(*(c.denominator for _, c in items))
    nums = [(r, c.numerator * (den // c.denominator)) for r, c in items]
    return [ratio(sum([lam * g.coefficient(r) for r, lam in nums]), den) for g in fb]


def solve_principal_part(weight, pp, in_s_shriek, precision):
    """Find the weakly holomorphic form of the given weight <= 0 with the
    prescribed principal part, or return the ObstructionWitness that rules
    it out.

    in_s_shriek=True solves in the zero-constant-term space (the request
    must have constant 0).  in_s_shriek=False solves with free constant
    term: for weight < 0 the constant is forced by the poles and the
    request's constant entry is ignored; for weight 0 it is part of the
    prescription.  Weights >= 2 raise NonUniqueSolution.

    An unobstructed request is solved in the slice of pole order
    a = max_pole + dim S_(2-w): the solution is sum pp(-n) * f_n over its
    reduced rows f_n with leading n up to the last prescribed index.  A
    principal part that then differs from pp raises AssertionError, a fault
    in the obstruction or the basis."""
    if weight % 2:
        raise ValueError("weight must be even")
    if weight >= 2:
        raise NonUniqueSolution(
            "weight %d has cusp forms in deep pole slices; the principal part "
            "does not determine a unique solution" % weight)
    if in_s_shriek and pp.constant != 0:
        raise ValueError("zero-constant-term solutions require a zero constant in the request")
    dual = HOLOMORPHIC if in_s_shriek else CUSPIDAL
    vec = obstruction(weight, pp, dual)
    if any(vec):
        return ObstructionWitness(weight, dual, vec)
    a = pp.max_pole + forms.dim_cusp(2 - weight)
    fb = wh_slice_basis(weight, a, precision)
    top = 0 if in_s_shriek or weight == 0 else -1
    terms = [(pp.coefficient(-n), f) for n, f in zip(fb.leading, fb) if n <= top]
    den = lcm(*(c.denominator for c, _ in terms))
    # the solution is num / den on [lo, precision), empty when precision <= -a
    lo = min(-a, precision)
    num = [0] * (precision - lo)
    for c, f in terms:
        if c:
            k = c.numerator * (den // c.denominator)
            num = [x + k * y for x, y in zip(num, f.series.coeffs)]
    sol = LaurentSeries(lo, [ratio(x, den) for x in num], precision)
    # the prescribed indices past the window raise PrecisionExceeded here
    for n in range(-a, top + 1):
        if sol.coefficient(n) != pp.coefficient(-n):
            raise AssertionError("unobstructed principal part failed to solve at index %d" % n)
    return ModularForm(weight, sol)


def j_polynomial_decompose(f, seed):
    """Write f = seed * Q(j) and return Q's coefficients ascending; raises
    NotPolynomialInJ when the ratio is not a polynomial in j on the provable
    window."""
    if f.weight != seed.weight:
        raise ValueError("weight mismatch: %d vs %d" % (f.weight, seed.weight))
    quo = f.series.div(seed.series)
    if quo.prec < 1:
        raise InsufficientPrecision("ratio window ends at %d" % quo.prec)
    v = quo.valuation()
    degree = -v if v is not None and v < 0 else 0
    jf = forms.j_function(quo.prec + degree).series if degree else None
    # j^t as j^(t-1) * j, each power built once
    powers = [None, *itertools.accumulate([jf] * degree, LaurentSeries.mul)]
    coeffs = [0] * (degree + 1)
    p = quo
    while True:
        v = p.valuation()
        if v is None or v >= 0:
            break
        t = -v
        c = p.coefficient(v)
        coeffs[t] = c
        p = p.sub(powers[t].truncate(p.prec).scale(c))
    coeffs[0] = p.coefficient(0)
    p = p.sub(LaurentSeries.from_coeff_map({0: coeffs[0]}, p.prec))
    v = p.valuation()
    if v is not None:
        raise NotPolynomialInJ(
            "residual has a nonzero coefficient at q^%d (value %s)" % (v, p.coefficient(v)))
    return coeffs


class BolReport(Immutable):
    """Outcome of a Bol-image membership test."""

    __slots__ = ("ok", "witness", "obstruction", "mismatch", "window")

    def __init__(self, ok, witness=None, obstruction=None, mismatch=None, window=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "obstruction", obstruction)
        object.__setattr__(self, "mismatch", mismatch)
        object.__setattr__(self, "window", window)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "BolReport(ok=True, window=%s)" % (self.window,)
        return "BolReport(ok=False, obstruction=%r, mismatch=%r)" % (
            self.obstruction, self.mismatch)


def bol_image_membership(h, k, in_s_shriek):
    """Decide whether the weight-2k form h is the (2k-1)-fold derivative
    image of a weight (2-2k) weakly holomorphic form; on q-expansions the
    image multiplies coefficient n by n^(2k-1).

    Returns a BolReport: on success the witness F satisfies
    F.series.d_power(2k-1) == h.series on h's full window."""
    if h.weight != 2 * k:
        raise ValueError("h has weight %d, expected %d" % (h.weight, 2 * k))
    if h.series.prec < 1:
        raise InsufficientPrecision("constant term of h is outside its window")
    # the image has no constant term
    _, mismatch = compare(LaurentSeries(0, [0]), LaurentSeries(0, [h.coefficient(0)]))
    if mismatch is not None:
        return BolReport(False, mismatch=mismatch)
    e = 2 * k - 1
    cand = {}
    for n, c in h.series.coeff_items():
        if n < 0 and c:
            cand[-n] = Fraction(c, n ** e)
    pp = PrincipalPart(cand, 0)
    sol = solve_principal_part(2 - 2 * k, pp, in_s_shriek, h.series.prec)
    if isinstance(sol, ObstructionWitness):
        return BolReport(False, obstruction=sol)
    window, mismatch = compare(sol.series.d_power(e), h.series)
    if mismatch is not None:
        return BolReport(False, witness=sol, mismatch=mismatch)
    return BolReport(True, witness=sol, window=window)
