"""Weakly holomorphic forms: pole-bounded echelon bases, principal parts,
the obstruction pairing, and the principal-part solver.

A principal part prescribes the coefficients of q^-r for r >= 1 plus a
constant term.  Whether a weakly holomorphic form with that principal part
exists is decided by pairing against an echelon basis of the dual weight
2 - w: the cusp space for forms with free constant term ("M-shriek"), the
full holomorphic space for forms required to have zero constant term
("S-shriek").  A vanishing pairing vector is equivalent to solvability,
and the solver then realizes the form greedily against a pole-bounded
echelon basis.
"""

from fractions import Fraction

from .qseries import LaurentSeries, InsufficientPrecision, as_coeff, compare
from . import forms
from .forms import ModularForm, FormBasis, HOLOMORPHIC, CUSPIDAL


class NonUniqueSolution(Exception):
    """The requested weight admits holomorphic cusp forms, so a principal
    part no longer pins down a unique solution."""


class NotPolynomialInJ(Exception):
    pass


class PrincipalPart:
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

    def __setattr__(self, name, value):
        raise AttributeError("PrincipalPart is immutable")

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


class ObstructionWitness:
    """Nonzero pairing vector certifying that no form with the requested
    principal part exists; indexed by the echelon dual basis."""

    __slots__ = ("weight", "dual_kind", "vector")

    def __init__(self, weight, dual_kind, vector):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "dual_kind", dual_kind)
        object.__setattr__(self, "vector", tuple(vector))

    def __setattr__(self, name, value):
        raise AttributeError("ObstructionWitness is immutable")

    def is_zero(self):
        return all(c == 0 for c in self.vector)

    def __repr__(self):
        return "ObstructionWitness(weight=%d, dual=%s, vector=%s)" % (
            self.weight, self.dual_kind, list(self.vector))


def wh_slice_basis(weight, max_pole, precision):
    """Echelon basis of the weight-w weakly holomorphic forms with pole
    order at most max_pole at the cusp: delta^-max_pole times the
    holomorphic space of weight w + 12*max_pole, re-reduced.  Window
    [-max_pole, precision) on every element; memoized like forms.basis."""
    if weight % 2:
        raise ValueError("weight must be even")
    if max_pole < 0:
        raise ValueError("max_pole must be >= 0")
    a = max_pole
    if a == 0:
        fb = forms.basis(weight, HOLOMORPHIC, precision)
        return FormBasis(weight, "wh", fb.elements, fb.leading)
    d = forms.dim_modular(weight + 12 * a)
    if d == 0:
        return FormBasis(weight, "wh", [], [])
    if precision <= -a + d:
        raise InsufficientPrecision(
            "pole-bounded basis with leading indices up to %d needs precision > %d"
            % (-a + d - 1, -a + d))

    def build(p):
        dinv = forms.delta(p + a + 1).series.invert()
        dinv_pow = dinv.pow(a).truncate(p)
        # any spanning set works: the reduced echelon form of the span is unique
        hol = forms._monomial_span(weight + 12 * a, p + a)
        span = [ModularForm(weight, h.series.mul(dinv_pow).truncate(p)) for h in hol]
        fb = forms.echelonize(span, weight, "wh", -a, p)
        if len(fb) != d or list(fb.leading) != list(range(-a, -a + d)):
            raise AssertionError("pole-bounded echelon basis came out wrong")
        return fb

    return forms._cached(("wh", weight, a), precision, build)


_DUAL_KINDS = {
    "cusp": CUSPIDAL, CUSPIDAL: CUSPIDAL,
    "holomorphic": HOLOMORPHIC, HOLOMORPHIC: HOLOMORPHIC,
}


def obstruction(weight, pp, dual_kind):
    """Pairing vector of a weight-w principal part against the echelon basis
    of the weight (2-w) dual space; entry i is
    sum_r pp(r) * c_i(r) + pp(0) * c_i(0)."""
    kind = _DUAL_KINDS.get(dual_kind)
    if kind is None:
        raise ValueError("dual kind must be 'cusp' or 'holomorphic'")
    dual_weight = 2 - weight
    d = forms.dimension(dual_weight, kind)
    if d == 0:
        return []
    s = 0 if kind == HOLOMORPHIC else 1
    need = max(pp.max_pole + 1, s + d + 1)
    fb = forms.basis(dual_weight, kind, need)
    vec = []
    for g in fb:
        acc = pp.constant * g.coefficient(0)
        for r, lam in pp.terms.items():
            acc += lam * g.coefficient(r)
        vec.append(as_coeff(acc))
    return vec


def solve_principal_part(weight, pp, in_s_shriek, precision):
    """Find the weakly holomorphic form of the given weight <= 0 with the
    prescribed principal part, or return the ObstructionWitness that rules
    it out.

    in_s_shriek=True solves in the zero-constant-term space (the request
    must have constant 0).  in_s_shriek=False solves with free constant
    term: for weight < 0 the constant is forced by the poles and the
    request's constant entry is ignored; for weight 0 it is part of the
    prescription.  Weights >= 2 raise NonUniqueSolution."""
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
    by_leading = {e: fb[i] for i, e in enumerate(fb.leading)}
    sol = LaurentSeries.zero(precision, valuation=-a if a else 0)
    match_constant = in_s_shriek or weight == 0
    top = 0 if match_constant else -1
    for n in range(-a, top + 1):
        target = pp.coefficient(-n)
        need = target - sol.coefficient(n)
        if need == 0:
            continue
        elem = by_leading.get(n)
        if elem is None:
            raise AssertionError(
                "unobstructed principal part failed to solve at index %d" % n)
        sol = sol.add(elem.series.scale(need))
    return ModularForm(weight, sol.truncate(precision))


def j_polynomial_decompose(f, seed, max_precision_used=None):
    """Write f = seed * Q(j) and return Q's coefficients ascending; raises
    NotPolynomialInJ when the ratio is not a polynomial in j on the provable
    window."""
    if f.weight != seed.weight:
        raise ValueError("weight mismatch: %d vs %d" % (f.weight, seed.weight))
    ratio = f.series.div(seed.series)
    if max_precision_used is not None:
        ratio = ratio.truncate(min(ratio.prec, max_precision_used))
    if ratio.prec < 1:
        raise InsufficientPrecision("ratio window ends at %d" % ratio.prec)
    v = ratio.valuation()
    degree = -v if v is not None and v < 0 else 0
    jf = forms.j_function(ratio.prec + degree).series if degree else None
    coeffs = [0] * (degree + 1)
    p = ratio
    while True:
        v = p.valuation()
        if v is None or v >= 0:
            break
        t = -v
        c = p.coefficient(v)
        coeffs[t] = c
        p = p.sub(jf.pow(t).truncate(p.prec).scale(c))
    coeffs[0] = p.coefficient(0)
    p = p.sub(LaurentSeries.from_coeff_map({0: coeffs[0]}, p.prec))
    v = p.valuation()
    if v is not None:
        raise NotPolynomialInJ(
            "residual has a nonzero coefficient at q^%d (value %s)" % (v, p.coefficient(v)))
    return coeffs


class BolReport:
    """Outcome of a Bol-image membership test."""

    __slots__ = ("ok", "witness", "obstruction", "mismatch", "window")

    def __init__(self, ok, witness=None, obstruction=None, mismatch=None, window=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "obstruction", obstruction)
        object.__setattr__(self, "mismatch", mismatch)
        object.__setattr__(self, "window", window)

    def __setattr__(self, name, value):
        raise AttributeError("BolReport is immutable")

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
