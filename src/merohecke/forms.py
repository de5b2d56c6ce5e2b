"""Classical level-one modular forms as exact q-expansions.

Eisenstein series, the discriminant form, the modular invariant j, echelon
(row-reduced) bases of the holomorphic and cuspidal spaces in even weight,
and exact characteristic polynomials of Hecke operators on those spaces.

Every echelon basis, here and in whbasis, is delta^e * M_(w-12e), reduced
from the unitriangular span delta^(e+j) * E4^a * E6^c (_echelon_basis): M_w
for e = 0, S_w for e = 1, poles of order at most a for e = -a.  Forms, bases
and the E4 and delta powers are memoized per process (see _cached): each is
built once at the largest precision asked for and truncated on request.
"""

import math
import threading
from fractions import Fraction

from . import hecke, linalg
from .qseries import Immutable, InsufficientPrecision, LaurentSeries, as_coeff

HOLOMORPHIC = "M"
CUSPIDAL = "S"


class ModularForm(Immutable):
    """A weight tag plus a truncated q-expansion; arithmetic tracks weights."""

    __slots__ = ("weight", "series")

    def __init__(self, weight, series):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "series", series)

    def coefficient(self, n):
        return self.series.coefficient(n)

    @property
    def precision(self):
        return self.series.prec

    def truncate(self, precision):
        return ModularForm(self.weight, self.series.truncate(precision))

    def hecke(self, m):
        return ModularForm(self.weight, hecke.t_op(self.series, self.weight, m))

    def __add__(self, other):
        if not isinstance(other, ModularForm):
            return NotImplemented
        if other.weight != self.weight:
            raise ValueError("weight mismatch: %s vs %s" % (self.weight, other.weight))
        return ModularForm(self.weight, self.series + other.series)

    def __sub__(self, other):
        if not isinstance(other, ModularForm):
            return NotImplemented
        if other.weight != self.weight:
            raise ValueError("weight mismatch: %s vs %s" % (self.weight, other.weight))
        return ModularForm(self.weight, self.series - other.series)

    def __neg__(self):
        return ModularForm(self.weight, -self.series)

    def __mul__(self, other):
        if isinstance(other, ModularForm):
            return ModularForm(self.weight + other.weight, self.series * other.series)
        if isinstance(other, (int, Fraction)):
            return ModularForm(self.weight, self.series.scale(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ModularForm):
            return ModularForm(self.weight - other.weight, self.series / other.series)
        if isinstance(other, (int, Fraction)):
            return ModularForm(self.weight, self.series.scale(Fraction(1, 1) / other))
        return NotImplemented

    def __pow__(self, e):
        return ModularForm(self.weight * e, self.series ** e)

    def __eq__(self, other):
        if not isinstance(other, ModularForm):
            return NotImplemented
        return self.weight == other.weight and self.series == other.series

    def __repr__(self):
        return "ModularForm(weight=%d, %s)" % (self.weight, self.series)


# -- arithmetic building blocks ----------------------------------------

_bernoulli = [Fraction(1)]


def bernoulli(k):
    """Exact Bernoulli number B_k (B_1 = -1/2)."""
    while len(_bernoulli) <= k:
        m = len(_bernoulli)
        acc = Fraction(0)
        for j in range(m):
            if _bernoulli[j]:
                acc += math.comb(m + 1, j) * _bernoulli[j]
        _bernoulli.append(-acc / (m + 1))
    return _bernoulli[k]


def sigma(r, n):
    """Sum of r-th powers of the positive divisors of n."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    return sum(d ** r for d in hecke.divisors(n))


# -- process-wide memo cache -------------------------------------------

_cache_lock = threading.Lock()
_cache = {}


def _cached(key, precision, builder):
    # the value's truncate(p) must give what builder(p) would.  Concurrent
    # readers are fine; insertion happens under the lock and a racing
    # recompute produces the identical value anyway
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit[0] >= precision:
        return hit[1].truncate(precision)
    value = builder(precision)
    with _cache_lock:
        hit = _cache.get(key)
        if hit is None or hit[0] < precision:
            _cache[key] = (precision, value)
    return value


def clear_cache():
    with _cache_lock:
        _cache.clear()


# -- the classical forms ------------------------------------------------

def eisenstein(weight, precision):
    """E_weight = 1 - (2*weight/B_weight) * sum sigma_{weight-1}(n) q^n."""
    if weight < 2 or weight % 2:
        raise ValueError("Eisenstein weight must be even and >= 2")
    if precision < 1:
        raise InsufficientPrecision("Eisenstein series needs precision >= 1")

    def build(p):
        # sigma_{weight-1}(n) for every n < p from one divisor sieve
        sig = [0] * p
        for d in range(1, p):
            dr = d ** (weight - 1)
            for m in range(d, p, d):
                sig[m] += dr
        # an int for weights 2, 4, 6, 8, 10 and 14, so no Fraction arises
        scale = as_coeff(Fraction(-2 * weight) / bernoulli(weight))
        coeffs = [scale * s for s in sig]
        coeffs[0] = 1
        return ModularForm(weight, LaurentSeries(0, coeffs, p))

    return _cached(("E", weight), precision, build)


def delta(precision):
    """The discriminant cusp form, window [1, precision).

    Delta = q * prod (1 - q^n)^24 = q * (eta~^3)^8, where Jacobi's identity
    gives the sparse eta~^3 = sum_m (-1)^m (2m+1) q^(m(m+1)/2); the eighth
    power takes three squarings."""
    if precision < 2:
        raise InsufficientPrecision("delta needs precision >= 2")

    def build(p):
        coeffs = [0] * (p - 1)
        m = 0
        while m * (m + 1) // 2 < p - 1:
            coeffs[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
            m += 1
        eta3 = LaurentSeries(0, coeffs, p - 1)
        return ModularForm(12, (eta3 ** 8).shift(1))

    return _cached(("delta",), precision, build)


def j_function(precision):
    """The modular invariant E_4^3 / delta, window [-1, precision)."""
    def build(p):
        e4 = eisenstein(4, p + 2)
        dl = delta(p + 2)
        return ModularForm(0, (e4.series ** 3).div(dl.series, p))

    return _cached(("j",), precision, build)


# -- spaces -------------------------------------------------------------

def dim_modular(weight):
    """Dimension of the holomorphic space in even weight."""
    if weight < 0 or weight % 2:
        return 0
    if weight % 12 == 2:
        return weight // 12
    return weight // 12 + 1


def dim_cusp(weight):
    return dim_modular(weight - 12)


def leading_start(kind):
    """0 for "M" and 1 for "S": the kind's space is delta^s * M_(w-12s),
    echelonized from q^s."""
    if kind not in (HOLOMORPHIC, CUSPIDAL):
        raise ValueError("kind must be %r or %r" % (HOLOMORPHIC, CUSPIDAL))
    return 0 if kind == HOLOMORPHIC else 1


def dimension(weight, kind):
    return dim_modular(weight - 12 * leading_start(kind))


class FormBasis(Immutable):
    """Echelonized basis: element i starts q^(s+i) + ... with zeros at the
    other leading indices."""

    __slots__ = ("weight", "kind", "elements", "leading")

    def __init__(self, weight, kind, elements, leading):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "leading", tuple(leading))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def truncate(self, precision):
        """The same basis with every window ending at precision.  Exact when
        the leading indices lie below precision: echelonize reads its
        multipliers at the leading columns, so every other column of a row
        comes from that column of the span alone, which truncation keeps."""
        return FormBasis(self.weight, self.kind,
                         [f.truncate(precision) for f in self.elements], self.leading)

    def coords(self, series):
        """Coordinates of a series known to lie in the span: read off the
        coefficients at the leading indices."""
        return [series.coefficient(e) for e in self.leading]


def _power(base, n, precision):
    """E4^n on [0, precision) for base "E4", or delta^n on [n, precision) for
    n of either sign (delta^-1 = q^-1 + 24 + ...), from the memo; None at n = 0."""
    def build(p):
        if base == "E4":
            return eisenstein(4, p).series.pow(n)
        dl = delta(p - n + 1).series
        return (dl.invert() if n < 0 else dl).pow(abs(n))

    return _cached((base + " power", n), precision, build) if n else None


def echelonize(span, e, precision):
    """Reduced echelon rows on [e, precision) of a unitriangular span, where
    span[j] = q^(e+j) + ... has int coefficients: back-substitution, from the
    last row up, divides by no pivot, so every entry stays an int."""
    rows = [[0] * (f.val - e) + list(f.coeffs[:precision - f.val]) for f in span]
    for j in range(len(rows) - 1, 0, -1):
        for row in rows[:j]:
            c = row[j]
            row[j:] = [x - c * y for x, y in zip(row[j:], rows[j][j:])]
    return rows


def _echelon_basis(weight, e, precision, label):
    """Echelon basis of delta^e * M_(weight-12e) on [e, precision), labelled
    label, from the memo: one build per (weight, e) at the largest precision
    asked for so far serves every request at or below it."""
    d = dim_modular(weight - 12 * e)
    if d == 0:
        return FormBasis(weight, label, [], [])
    if precision < e + d + 1:
        raise InsufficientPrecision(
            "pole-bounded basis with leading indices up to %d needs precision > %d"
            % (e + d - 1, e + d))

    def build(p):
        # Miller's basis times delta^e: f_n = delta^n * E4^a * E6^c with
        # 4a + 6c = weight - 12n is q^n + ... for e <= n < e + d
        q, c = p - min(e, 0), weight % 4 // 2
        span = []
        for n in range(e, e + d):
            factors = [g for g in (_power("delta", n, p), _power("E4", weight // 4 - 3 * n - c, q),
                                   eisenstein(6, q).series if c else None) if g is not None]
            f = factors[0] if factors else LaurentSeries.one(p)
            for g in factors[1:]:
                f = f.mul(g)
            span.append(f)
        return FormBasis(weight, label, [ModularForm(weight, LaurentSeries(e, row, p))
                                         for row in echelonize(span, e, p)], range(e, e + d))

    fb = _cached(("basis", weight, e), precision, build)
    # the M entry also serves the max_pole = 0 slice, labelled "wh"
    return fb if fb.kind == label else FormBasis(weight, label, fb.elements, fb.leading)


def basis(weight, kind, precision):
    """Echelon basis of the holomorphic ("M") or cuspidal ("S") space."""
    return _echelon_basis(weight, leading_start(kind), precision, kind)


def _basis_through(weight, kind, n):
    """The echelon basis on the shortest window that holds q^n and every
    leading index."""
    return basis(weight, kind, max(n, leading_start(kind) + dimension(weight, kind)) + 1)


def hecke_matrix_on_space(weight, kind, m):
    """Exact matrix of the index-m Hecke operator on the echelon basis:
    column j holds T_m f_j at the leading indices."""
    fb = _basis_through(weight, kind, m * (leading_start(kind) + dimension(weight, kind) - 1))
    images = [hecke.t_op(f.series, weight, m) for f in fb]
    return [[g.coefficient(e) for g in images] for e in fb.leading]


def hecke_charpoly_on_space(weight, kind, m):
    """Characteristic polynomial (ascending, monic) of T_m on the space."""
    return linalg.charpoly(hecke_matrix_on_space(weight, kind, m))
