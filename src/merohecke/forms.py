"""Classical level-one modular forms as exact q-expansions.

Eisenstein series, the discriminant form, the modular invariant j, echelon
(row-reduced) bases of the holomorphic and cuspidal spaces in even weight,
and exact characteristic polynomials of Hecke operators on those spaces.

The forms and the bases are memoized per process (see _cached): each is
built once at the largest precision asked for and truncated on request.
"""

import math
import threading
from fractions import Fraction

from . import hecke, linalg
from .qseries import InsufficientPrecision, LaurentSeries, as_coeff

HOLOMORPHIC = "M"
CUSPIDAL = "S"


class ModularForm:
    """A weight tag plus a truncated q-expansion; arithmetic tracks weights."""

    __slots__ = ("weight", "series")

    def __init__(self, weight, series):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "series", series)

    def __setattr__(self, name, value):
        raise AttributeError("ModularForm is immutable")

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
    return max(dim_modular(weight) - 1, 0)


def dimension(weight, kind):
    if kind == HOLOMORPHIC:
        return dim_modular(weight)
    if kind == CUSPIDAL:
        return dim_cusp(weight)
    raise ValueError("kind must be %r or %r" % (HOLOMORPHIC, CUSPIDAL))


class FormBasis:
    """Echelonized basis: element i starts q^(s+i) + ... with zeros at the
    other leading indices."""

    __slots__ = ("weight", "kind", "elements", "leading")

    def __init__(self, weight, kind, elements, leading):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "leading", tuple(leading))

    def __setattr__(self, name, value):
        raise AttributeError("FormBasis is immutable")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def truncate(self, precision):
        """The same basis with every window ending at precision.  Exact for
        an echelon basis whose leading indices lie below precision: a
        full-rank RREF with pivots on its first d columns is M_piv^-1 * M,
        so its leading columns are those of the RREF of M truncated."""
        return FormBasis(self.weight, self.kind,
                         [f.truncate(precision) for f in self.elements], self.leading)

    def coords(self, series):
        """Coordinates of a series known to lie in the span: read off the
        coefficients at the leading indices."""
        return [series.coefficient(e) for e in self.leading]


def _monomial_span(weight, precision):
    # E4^b * E6^c with 4b + 6c = weight spans the holomorphic space
    span = []
    for c in range(weight // 6 + 1):
        rest = weight - 6 * c
        if rest < 0 or rest % 4:
            continue
        b = rest // 4
        f = ModularForm(0, LaurentSeries.one(precision))
        if b:
            f = f * (eisenstein(4, precision) ** b)
        if c:
            f = f * (eisenstein(6, precision) ** c)
        span.append(ModularForm(weight, f.series.truncate(precision)))
    return span


def echelonize(forms, weight, kind, window_start, precision):
    """Exact row reduction of q-expansions aligned on [window_start, precision)."""
    rows = []
    for f in forms:
        rows.append([f.series.coefficient(n) for n in range(window_start, precision)])
    red, pivots = linalg.rref(rows)
    elements = [ModularForm(weight, LaurentSeries(window_start, row, precision)) for row in red]
    leading = [window_start + p for p in pivots]
    return FormBasis(weight, kind, elements, leading)


def basis(weight, kind, precision):
    """Echelon basis of the holomorphic ("M") or cuspidal ("S") space, from
    the memo: one build at the largest precision asked for so far serves
    every request at or below it."""
    d = dimension(weight, kind)
    if d == 0:
        return FormBasis(weight, kind, [], [])
    s = 0 if kind == HOLOMORPHIC else 1
    if precision < s + d + 1:
        raise InsufficientPrecision(
            "basis of dimension %d from q^%d needs precision >= %d" % (d, s, s + d + 1))

    def build(p):
        if kind == HOLOMORPHIC:
            span = _monomial_span(weight, p)
        else:
            span = [delta(p) * g for g in _monomial_span(weight - 12, p)]
            span = [ModularForm(weight, f.series.truncate(p)) for f in span]
        fb = echelonize(span, weight, kind, s, p)
        if len(fb) != d or list(fb.leading) != list(range(s, s + d)):
            raise AssertionError("echelon basis of weight %d %s came out wrong" % (weight, kind))
        return fb

    return _cached(("basis", weight, kind), precision, build)


def hecke_matrix_on_space(weight, kind, m):
    """Exact matrix of the index-m Hecke operator on the echelon basis."""
    d = dimension(weight, kind)
    if d == 0:
        return []
    s = 0 if kind == HOLOMORPHIC else 1
    fb = basis(weight, kind, m * (s + d + 1) + 2)
    cols = []
    for f in fb:
        image = hecke.t_op(f.series, weight, m)
        cols.append(fb.coords(image))
    return [[cols[i][j] for i in range(d)] for j in range(d)]


def hecke_charpoly_on_space(weight, kind, m):
    """Characteristic polynomial (ascending, monic) of T_m on the space."""
    return linalg.charpoly(hecke_matrix_on_space(weight, kind, m))
