"""Truncated Laurent series in q with exact rational coefficients.

A series stores the window [val, prec): exactly prec - val coefficients.
Coefficients below the window start are zero by convention (finite principal
part); nothing is known at prec or beyond.  Every operation tracks the
provable window pessimistically and never extends precision:

    add:    window [min(va, vb), min(Pa, Pb))
    mul:    window [va + vb,     min(Pa + vb, Pb + va))
    div:    window [vN - v*,     min(PN - v*, PD - 2 v* + vN))
    invert: window [-v*,         P - 2 v*)

where v* is the true valuation of the divisor (its first nonzero stored
coefficient) and N/D are the dividend and divisor.  invert is the division
of the constant 1, whose window never ends.

Coefficients are Python ints when integral, fractions.Fraction otherwise;
both print as "num" or "num/den" which is also the serialization format.

A product keeps min(Pa - va, Pb - vb) coefficients, as many as the shorter
factor stores, and mul computes only those (see _convolve).  A quotient is
computed straight to its target by one recurrence (see _divide).
"""

import json
from fractions import Fraction
from operator import mul as _mul
from typing import NamedTuple

# Exact products go through one kernel, `_convolve`, with two paths:
#
#   schoolbook  for any Fraction input, below _KRON_MIN_LEN kept terms, and
#               when a Kronecker slot would be wider than
#               _KRON_SLOT_BITS_PER_COEFF bits per kept term;
#   Kronecker   otherwise: one signed big-integer product (Harvey, "Faster
#               polynomial multiplication via multipoint Kronecker
#               substitution", J. Symb. Comp. 44, 2009, the one-point case).
#
# Both constants come from bench/kernel_crossover.py and from replaying the
# products recorded on the benchmark decks (2-vCPU Xeon VM, CPython 3.11.7,
# no gmpy2).  With coefficients up to 64 bits Kronecker wins from about 16
# terms.  Wider coefficients move the crossover out, to about 64 terms at
# 256 bits and 100 to 130 at 512 bits: every slot is padded to the widest
# coefficient, the product's discarded upper half is computed too, and
# CPython multiplies each wide schoolbook pair in its own C loop.
_KRON_MIN_LEN = 16
_KRON_SLOT_BITS_PER_COEFF = 6


class QSeriesError(Exception):
    pass


class ZeroLeadingCoefficient(QSeriesError):
    """Inversion of a series that is zero through its whole stored window."""


class InsufficientPrecision(QSeriesError):
    """The input windows cannot support the requested output window."""


class PrecisionExceeded(QSeriesError):
    """A coefficient at or beyond the precision bound was requested."""


def as_coeff(x):
    """Normalize a number to int (when integral) or Fraction."""
    if type(x) is int:
        return x
    # text first: isinstance(x, Fraction) goes through ABCMeta for a non-Fraction
    if isinstance(x, str):
        # canonical text, "-3" or "5/7", is read by int; any other text,
        # "1.5" or "1_000", by Fraction, which also raises for non-numbers
        coeff = _dec_coeff(x)
        return as_coeff(Fraction(x)) if coeff is None else coeff
    if isinstance(x, Fraction):
        return x._numerator if x._denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("coefficient must be int, Fraction or 'num/den' string, got %r" % (x,))


def ratio(num, den):
    """num/den normalized, for an int or Fraction num and a nonzero int den:
    an int when integral, else one Fraction."""
    if type(num) is not int:
        num, den = num.numerator, num.denominator * den
    return num // den if num % den == 0 else Fraction(num, den)


# -- decimal text past CPython's digit limit ----------------------------

# CPython 3.11 refuses int <-> decimal str conversions above 4300 digits.
# Where str() or int() refuses, _dec_str and _dec_int split at the powers
# 10^(_DEC_LEAF * 2^i) and convert pieces below the limit (Brent and
# Zimmermann, Modern Computer Arithmetic, section 1.7).  No interpreter
# setting changes.
_DEC_LEAF = 2048


def _dec_str(c):
    """str(c) for an int or Fraction c of any size."""
    try:
        return str(c)
    except ValueError:
        # past CPython's int -> str digit limit
        pass
    if type(c) is not int:
        return "%s/%s" % (_dec_str(c.numerator), _dec_str(c.denominator))
    if c < 0:
        return "-" + _dec_str(-c)
    pows = [10 ** _DEC_LEAF]
    while pows[-1] <= c:
        pows.append(pows[-1] * pows[-1])

    def digits(n, i, width):
        # n < pows[i], zero-padded to width
        if i == 0:
            return str(n).zfill(width)
        hi, lo = divmod(n, pows[i - 1])
        if not hi:
            return digits(lo, i - 1, width)
        w = _DEC_LEAF << (i - 1)
        return digits(hi, i - 1, width - w) + digits(lo, i - 1, w)

    return digits(c, len(pows) - 1, 0)


def _dec_int(text):
    """The int of a string of ASCII decimal digits of any length."""
    if len(text) <= _DEC_LEAF:
        return int(text)
    pows = [10 ** _DEC_LEAF]
    while _DEC_LEAF << len(pows) < len(text):
        pows.append(pows[-1] * pows[-1])

    def value(d, i):
        # len(d) <= _DEC_LEAF * 2^(i + 1)
        while i >= 0 and _DEC_LEAF << i >= len(d):
            i -= 1
        if i < 0:
            return int(d)
        w = _DEC_LEAF << i
        return value(d[:-w], i - 1) * pows[i] + value(d[-w:], i - 1)

    return value(text, len(pows) - 1)


def _dec_coeff(text):
    """The normalized coefficient of "[+-]digits" or "[+-]digits/digits" of
    any length, None for any other text."""
    num, slash, den = text.strip().partition("/")
    neg = num[:1] == "-"
    if num[:1] in ("+", "-"):
        num = num[1:]
    if not (num.isascii() and num.isdigit()) or slash and not (den.isascii() and den.isdigit()):
        return None
    n = -_dec_int(num) if neg else _dec_int(num)
    if not slash:
        return n
    x = Fraction(n, _dec_int(den))
    return x._numerator if x._denominator == 1 else x


def _conv_school(a, b, n):
    """The first n coefficients of the product of a and b (int/Fraction
    mixed), looping only over the pairs i + j < n."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[:n - i]):
                out[i + j] += ai * bj
    return out


def _slot_bits(a, b, n):
    """Bits a Kronecker slot needs so that any of the first n coefficients of
    a*b, plus the sign bias, fits without a carry into the next slot."""
    ma = max(map(abs, a)) or 1
    mb = max(map(abs, b)) or 1
    return (ma * mb * n).bit_length() + 1


def _conv_kron(a, b, n, slot_bits):
    """The first n coefficients of the product of the integer lists a and b
    (each of length n) from one big-integer product; a square (b is a) packs
    its operand once and squares the packed integer.

    Each list is packed as the signed integer sum(x_i 2^(S i)), S = 8 * slot:
    every coefficient goes in biased by half = 2^(S-1), so its slot is a
    nonnegative number below 2^S, and the packed biases are subtracted
    again.  The product's coefficients satisfy |c_k| < half, so adding half
    to each of the low n slots and reducing mod 2^(S n) leaves c_k + half
    in slot k with no carries; one to_bytes then unpacks them all."""
    slot = (slot_bits + 7) // 8
    half = 1 << (8 * slot - 1)
    biases = int.from_bytes((b"\0" * (slot - 1) + b"\x80") * n, "little")

    def pack(v):
        raw = b"".join([(x + half).to_bytes(slot, "little") for x in v])
        return int.from_bytes(raw, "little") - biases

    width = 8 * slot * n
    pa = pack(a)
    prod = (pa * (pa if b is a else pack(b)) + biases) & ((1 << width) - 1)
    raw = prod.to_bytes(slot * n, "little")
    return [int.from_bytes(raw[i:i + slot], "little") - half
            for i in range(0, slot * n, slot)]


def _convolve(a, b, n):
    """The first n coefficients of the product of two normalized coefficient
    sequences, each at least n long, as a list of normalized coefficients.
    A square (b is a) stays one object, so the Kronecker path packs once."""
    square = b is a
    a = a[:n]
    b = a if square else b[:n]
    if not {*map(type, a), *map(type, b)} <= {int}:
        return [as_coeff(c) for c in _conv_school(a, b, n)]
    if n >= _KRON_MIN_LEN:
        slot_bits = _slot_bits(a, b, n)
        if slot_bits <= _KRON_SLOT_BITS_PER_COEFF * n:
            return _conv_kron(a, b, n, slot_bits)
    return _conv_school(a, b, n)


def _divide(num, den, n, seed=()):
    """The first n coefficients of num/den, for normalized coefficient lists
    with den[0] != 0 and len(den) >= n; num may be shorter (its missing
    coefficients are zero).

    The recurrence q_k = (num_k - sum_{i=1..k} den_i q_(k-i)) / den_0 stays in
    integers when every input is an int and den_0 is a unit.  seed holds the
    first rows as a shorter division of the same series gave them: the
    recurrence resumes after them when the last one satisfies it, and starts
    from nothing otherwise."""
    num = list(num[:n]) + [0] * (n - len(num))
    rest = den[1:n]
    lead = den[0]
    ints = lead in (1, -1) and {*map(type, num), *map(type, den[:n])} <= {int}
    if not ints:
        lead = Fraction(lead)
    out = list(seed[:n])
    if out:
        # one row of the recurrence, O(len(seed)): an int quotient has only
        # int rows, and the last row must be what the recurrence gives
        k = len(out) - 1
        s = num[k] - sum(map(_mul, rest, reversed(out[:k])))
        if ints and not {*map(type, out)} <= {int} or out[k] != (lead * s if ints else s / lead):
            out = []
    start = len(out)
    if ints:
        for c in num[start:]:
            out.append(lead * (c - sum(map(_mul, rest, reversed(out)))))
        return out
    for c in num[start:]:
        out.append((c - sum(map(_mul, rest, reversed(out)))) / lead)
    return out[:start] + [as_coeff(c) for c in out[start:]]


def _divide_series(num, vn, pn, den, target, seed=None):
    """Quotient of the series with coefficients num on [vn, pn) (pn None: the
    window never ends) by den, to the target precision or as far as provable;
    a seed, a shorter window of this quotient, gives its first rows when it
    starts where the quotient does (see _divide)."""
    vstar = den.valuation()
    if vstar is None:
        raise ZeroLeadingCoefficient("division by a series that is zero through its window")
    lo = vn - vstar
    hi = den.prec - 2 * vstar + vn
    if pn is not None:
        hi = min(hi, pn - vstar)
    if target is None:
        target = hi
    elif target > hi:
        raise InsufficientPrecision(
            "quotient provable only to precision %d, requested %d" % (hi, target))
    if target <= lo:
        return LaurentSeries._make(target, (), target)
    rows = seed.coeffs if seed is not None and seed.val == lo else ()
    coeffs = _divide(num, den.coeffs[vstar - den.val:], target - lo, rows)
    return LaurentSeries._make(lo, tuple(coeffs), target)


class Immutable:
    """Base of the value types.  A type lists its fields once, in its
    __slots__; Immutable.__init__(*values) stores one value in each, in
    that order, and nothing is rebound afterwards.  A subclass's own
    __init__ only normalizes, validates or defaults its input and then calls
    super().__init__.  Instances compare by identity; see Value."""

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(names), len(values)))
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Value(Immutable):
    """An Immutable that compares and hashes by its fields: equal to a value
    of the same type with equal slots, hashed as the tuple of its slots."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self.__slots__))


class LaurentSeries(Value):
    """Immutable truncated Laurent series over the rationals."""

    __slots__ = ("val", "prec", "coeffs")

    def __init__(self, valuation, coefficients, precision=None):
        coeffs = tuple(coefficients)
        kinds = {*map(type, coeffs)}
        if not kinds <= {int}:
            try:
                # all text: int reads "-3", as_coeff the rest
                coeffs = tuple(map(int if kinds == {str} else as_coeff, coeffs))
            except ValueError:
                # a fraction, or a text past CPython's str -> int digit limit
                coeffs = tuple(map(as_coeff, coeffs))
        if precision is None:
            precision = valuation + len(coeffs)
        if precision - valuation != len(coeffs):
            raise ValueError("window [%d, %d) needs %d coefficients, got %d"
                             % (valuation, precision, precision - valuation, len(coeffs)))
        super().__init__(valuation, precision, coeffs)

    @classmethod
    def _make(cls, valuation, coeffs, precision):
        """Trusted constructor for results built from normalized
        coefficients: coeffs is a tuple of exactly precision - valuation
        ints and non-integral Fractions, and is neither checked nor copied."""
        s = object.__new__(cls)
        object.__setattr__(s, "val", valuation)
        object.__setattr__(s, "prec", precision)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision, valuation=None):
        if valuation is None:
            valuation = min(0, precision)
        if valuation > precision:
            valuation = precision
        return cls(valuation, [0] * (precision - valuation), precision)

    @classmethod
    def one(cls, precision):
        return cls.monomial(0, precision)

    @classmethod
    def monomial(cls, n, precision, coeff=1):
        if n >= precision:
            raise InsufficientPrecision("monomial exponent %d not below precision %d" % (n, precision))
        return cls(n, [coeff] + [0] * (precision - n - 1), precision)

    @classmethod
    def from_coeff_map(cls, mapping, precision, valuation=None):
        if valuation is None:
            valuation = min(list(mapping) + [0])
        coeffs = [0] * (precision - valuation)
        for n, c in mapping.items():
            if n >= precision:
                raise InsufficientPrecision("exponent %d not below precision %d" % (n, precision))
            if n < valuation:
                raise ValueError("exponent %d below window start %d" % (n, valuation))
            coeffs[n - valuation] = c
        return cls(valuation, coeffs, precision)

    # -- inspection ---------------------------------------------------

    def coefficient(self, n):
        if n >= self.prec:
            raise PrecisionExceeded("coefficient %d requested but precision is %d" % (n, self.prec))
        if n < self.val:
            return 0
        return self.coeffs[n - self.val]

    def valuation(self):
        """Index of the first nonzero stored coefficient, None if the window is all zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.val + i
        return None

    def is_zero(self):
        return self.valuation() is None

    def coeff_items(self):
        return [(self.val + i, c) for i, c in enumerate(self.coeffs)]

    # -- arithmetic ---------------------------------------------------

    def add(self, other):
        lo = min(self.val, other.val)
        hi = min(self.prec, other.prec)
        if hi <= lo:
            return LaurentSeries._make(hi, (), hi)
        out = [0] * (hi - lo)
        for s in (self, other):
            for i, c in enumerate(s.coeffs):
                n = s.val + i
                if lo <= n < hi and c:
                    out[n - lo] += c
        return LaurentSeries(lo, out, hi)

    def neg(self):
        return LaurentSeries._make(self.val, tuple([-c for c in self.coeffs]), self.prec)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        lo = self.val + other.val
        hi = min(self.prec + other.val, other.prec + self.val)
        if hi <= lo:
            return LaurentSeries._make(hi, (), hi)
        return LaurentSeries._make(lo, tuple(_convolve(self.coeffs, other.coeffs, hi - lo)), hi)

    def scale(self, c):
        c = as_coeff(Fraction(c) if not isinstance(c, (int, Fraction)) else c)
        return LaurentSeries(self.val, [c * x for x in self.coeffs], self.prec)

    def shift(self, k):
        return LaurentSeries._make(self.val + k, self.coeffs, self.prec + k)

    def invert(self, target_precision=None):
        """Multiplicative inverse, provable on [-v*, prec - 2 v*)."""
        return _divide_series((1,), 0, None, self, target_precision)

    def div(self, other, target_precision=None, seed=None):
        """self / other, provable on [va - v*, min(Pa - v*, Pb - 2 v* + va));
        with an explicit target the result window ends exactly there.  A
        seed, the quotient to a lower precision, saves recomputing its rows."""
        return _divide_series(self.coeffs, self.val, self.prec, other, target_precision, seed)

    def pow(self, e):
        if e < 0 or e != int(e):
            raise ValueError("exponent must be a nonnegative integer")
        e = int(e)
        if e == 0:
            return LaurentSeries.one(self.prec)
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result.mul(base)
            e >>= 1
            if e:
                base = base.mul(base)
        return result

    def d_power(self, j):
        """Apply (q d/dq)^j: coefficient at n picks up a factor n^j."""
        if j < 0:
            raise ValueError("d_power exponent must be nonnegative")
        out = [((self.val + i) ** j) * c for i, c in enumerate(self.coeffs)]
        return LaurentSeries(self.val, out, self.prec)

    def truncate(self, new_precision):
        if new_precision > self.prec:
            raise InsufficientPrecision(
                "cannot extend precision %d to %d" % (self.prec, new_precision))
        if new_precision == self.prec:
            return self
        if new_precision <= self.val:
            return LaurentSeries._make(new_precision, (), new_precision)
        return LaurentSeries._make(self.val, self.coeffs[:new_precision - self.val], new_precision)

    # -- operators ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, LaurentSeries):
            return self.add(other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, LaurentSeries):
            return self.sub(other)
        return NotImplemented

    def __neg__(self):
        return self.neg()

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            return self.mul(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, LaurentSeries):
            return self.div(other)
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(1, 1) / other)
        return NotImplemented

    def __pow__(self, e):
        return self.pow(e)

    def __repr__(self):
        return "LaurentSeries(val=%d, prec=%d, %s)" % (self.val, self.prec, str(self))

    def __str__(self):
        return series_str(self.val, coeff_texts(self))


def coeff_texts(s):
    """The canonical decimal text of each coefficient of s: "-3", "1/2"."""
    try:
        return list(map(str, s.coeffs))
    except ValueError:
        # past CPython's int -> str digit limit
        return list(map(_dec_str, s.coeffs))


def series_str(val, texts):
    """The text of the series on [val, val + len(texts)) with coefficient texts."""
    return "%s + O(q^%d)" % (terms_str(enumerate(texts, val), "q"), val + len(texts))


def terms_str(items, var):
    """Nonzero terms c*var^n of (n, c) pairs, c as text, in order: "-3*q^-1 + q - 1/2*q^2"."""
    parts = []
    for n, c in items:
        if c == "0":
            continue
        sign, c = ("- ", c[1:]) if c[0] == "-" else ("+ ", c)
        if n == 0:
            parts.append(sign + c)
        elif c == "1":
            parts.append(f"{sign}{var}" if n == 1 else f"{sign}{var}^{n}")
        else:
            parts.append(f"{sign}{c}*{var}" if n == 1 else f"{sign}{c}*{var}^{n}")
    if not parts:
        return "0"
    # the first term has no space after its sign, and no sign if positive
    parts[0] = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
    return " ".join(parts)


class Comparison(NamedTuple):
    """The union window (lo, hi) of two series, an empty one having
    lo == hi, and None when they agree on it, else {"index": n, "lhs": a_n,
    "rhs": b_n} at the first mismatch n, coefficients as text.  True only
    when the series agree."""
    window: tuple
    mismatch: dict | None

    def __bool__(self):
        return self.mismatch is None


def compare(a, b):
    """The Comparison of a and b on the union window [min(va, vb),
    min(Pa, Pb)), where coefficients below a window start count as zero."""
    lo = min(a.val, b.val)
    hi = min(a.prec, b.prec)
    for n in range(lo, hi):
        an, bn = a.coefficient(n), b.coefficient(n)
        if an != bn:
            return Comparison((lo, hi), {"index": n, "lhs": _dec_str(an), "rhs": _dec_str(bn)})
    return Comparison((lo, hi), None)


# -- serialization ----------------------------------------------------

def to_json_obj(s):
    return series_obj(s.val, coeff_texts(s))


def series_obj(val, texts):
    """The JSON object of the series on [val, val + len(texts)) with coefficient texts."""
    return {"valuation": val, "precision": val + len(texts), "coefficients": texts}


def from_json_obj(obj):
    """The series of a JSON object; the constructor reads its coefficient texts."""
    return LaurentSeries(int(obj["valuation"]), obj["coefficients"], int(obj["precision"]))


def dumps(s, **kw):
    return json.dumps(to_json_obj(s), **kw)


def loads(text):
    return from_json_obj(json.loads(text))
