"""Arbitrary-precision numeric layer: evaluation of exact q-series on the
upper half-plane, slash and Hecke values by two independent routes, the
special-point checks at (1+sqrt(7)i)/2, the coefficient-wise numeric
verification of the weight-6 eigenvalue identities, and truncated elliptic
Poincare sums with their two-variable Hecke relation.

Tail bounds are heuristic (ratio test over the last quarter of the stored
window) and are surfaced in every result rather than hidden; truncated
group sums report a crude O(B^(1-2k)) tail estimate.

A truncated Poincare sum takes one of two routes, chosen by bits alone.
At bits <= 53 it is summed in binary64 complex.  Above, each value is a
Gaussian fixed-point number, two Python ints scaled by 2^F with
F = bits + 30 + 16 + log2((2 bound + 1)^3), the last term for the count of
summands.  Sums are exact; each product is floored to F fractional bits
and each quotient takes one integer division, so a summand is off by a few
units of 2^-F and the total by the summand count times that (fixed-point
error accounting as in Brent and Zimmermann, Modern Computer Arithmetic,
ch. 3).  The total is rounded to an mpc at bits + 30.  The 16 spare bits
keep the error below that working precision, so the 40 printed digits
(about 133 bits) are those an mpc summation at bits + 30 prints wherever
the working precision covers them, that is from bits = 103 up; below, the
printed digits past bits + 30 are rounding noise of either route.
"""

import functools
import math
from fractions import Fraction

import mpmath
from mpmath import mp, workprec

from . import forms, hecke, meroforms
from .hecke import divisors


_GUARD_BITS = 30


class RegionGuard(Exception):
    """Evaluation requested at or below the documented validity height, or
    at a pole of the requested sum."""


class DivergentTail(Exception):
    """Observed coefficient growth beats |q| decay on the stored window."""


class EvalResult:
    __slots__ = ("value", "err_bound", "tail_note")

    def __init__(self, value, err_bound, tail_note=None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "err_bound", err_bound)
        object.__setattr__(self, "tail_note", tail_note)

    def __setattr__(self, name, value):
        raise AttributeError("EvalResult is immutable")

    def __complex__(self):
        return complex(self.value)

    def to_json_obj(self):
        # nstr reads the stored mantissa directly; wrapping in mpf() here
        # would re-round high-precision values to the ambient precision
        return {
            "value_re": mpmath.nstr(self.value.real, 40),
            "value_im": mpmath.nstr(self.value.imag, 40),
            "err_bound": mpmath.nstr(self.err_bound, 10),
            "tail_note": self.tail_note,
        }

    def __repr__(self):
        return "EvalResult(%s, err<=%s%s)" % (
            mpmath.nstr(self.value, 20), mpmath.nstr(self.err_bound, 5),
            ", " + self.tail_note if self.tail_note else "")


class HPoint:
    """A point of the upper half-plane; coordinates are kept in their
    given form (string, int, float, mpf) and converted at use precision."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if not (math.isfinite(float(x)) and math.isfinite(float(y))):
            raise ValueError("coordinates must be finite")
        if not float(y) > 0:
            raise ValueError("imaginary part must be positive")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("HPoint is immutable")

    @classmethod
    def parse(cls, text):
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError("expected 'x,y', got %r" % text)
        return cls(parts[0].strip(), parts[1].strip())

    def to_mpc(self):
        # call under the target working precision
        return mpmath.mpc(mpmath.mpf(self.x), mpmath.mpf(self.y))

    def to_complex(self):
        return complex(float(mpmath.mpf(self.x)), float(mpmath.mpf(self.y)))

    def __repr__(self):
        return "HPoint(%s, %s)" % (self.x, self.y)


class PoincareSeed:
    """Weight parameter k (the sum has weight 2k), inner exponent ell, and
    the center point; 2k >= 4 for absolute convergence."""

    __slots__ = ("k", "ell", "center")

    def __init__(self, k, ell, center):
        if 2 * k < 4:
            raise ValueError("need 2k >= 4 for absolute convergence")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "center", center)

    def __setattr__(self, name, value):
        raise AttributeError("PoincareSeed is immutable")

    def __repr__(self):
        return "PoincareSeed(k=%d, ell=%d, center=%r)" % (self.k, self.ell, self.center)


def _as_mpc(z):
    if isinstance(z, HPoint):
        return z.to_mpc()
    if isinstance(z, tuple):
        return mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1]))
    return mpmath.mpc(z)


def _as_complex(z):
    return complex(_as_mpc(z))


def _coeff_num(c):
    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    return mpmath.mpf(c)


def eval_series(f, z, bits=200, min_height=None):
    """Sum an exact series at a point of the upper half-plane.

    The caller owns the validity question: pass min_height for expansions
    of meromorphic quotients that only converge high in the cusp.  The
    returned bound models the unseen tail as geometric with ratio taken
    from the worst coefficient ratio in the last quarter of the window."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    with workprec(bits + _GUARD_BITS):
        zz = _as_mpc(z)
        y = zz.imag
        if not y > 0:
            raise ValueError("evaluation point must lie in the upper half-plane")
        if min_height is not None and y <= min_height:
            raise RegionGuard(
                "expansion documented valid only for y > %s; got y = %s"
                % (min_height, mpmath.nstr(y, 10)))
        if f.prec <= f.val:
            return EvalResult(mpmath.mpc(0), mpmath.mpf(0), "empty window")
        q = mpmath.exp(2j * mpmath.pi * zz)
        qa = abs(q)
        total = mpmath.mpc(0)
        qp = q ** f.val
        last_idx = None
        for n, c in enumerate(f.coeffs, f.val):
            if c:
                last_term = _coeff_num(c) * qp
                total += last_term
                last_idx = n
            qp *= q
        if last_idx is None:
            return EvalResult(mpmath.mpc(0), mpmath.mpf(0), "all stored coefficients are zero")
        last_mag = abs(last_term)
        length = f.prec - f.val
        tail_lo = f.prec - max(2, (length + 3) // 4)
        ratio = None
        prev = None
        for n in range(max(tail_lo, f.val), f.prec):
            c = f.coefficient(n)
            if c:
                if prev is not None:
                    r = abs(_coeff_num(c)) / abs(_coeff_num(prev))
                    ratio = r if ratio is None else max(ratio, r)
                prev = c
        if ratio is None:
            # no consecutive growth information; model continuation flat
            bound = last_mag * qa ** (f.prec - last_idx) / (1 - qa)
            note = "no nonzero ratio pair in tail sample; flat-continuation bound"
            return EvalResult(total, bound, note)
        r = ratio * qa
        if r >= 1:
            raise DivergentTail(
                "tail ratio %s * |q| = %s is >= 1 at y = %s"
                % (mpmath.nstr(ratio, 8), mpmath.nstr(r, 8), mpmath.nstr(y, 8)))
        bound = last_mag * r / (1 - r)
        return EvalResult(total, bound)


def slash_value(f, weight, gamma, z, bits=200, min_height=None):
    """Weight-2kappa slash action of an integer matrix with positive
    determinant: det^kappa (cz+d)^(-2kappa) f(gamma z)."""
    if weight % 2:
        raise ValueError("weight must be even")
    (a, b), (c, d) = gamma
    det = a * d - b * c
    if det <= 0:
        raise ValueError("matrix determinant must be positive")
    kappa = weight // 2
    with workprec(bits + _GUARD_BITS):
        zz = _as_mpc(z)
        denom = c * zz + d
        w = (a * zz + b) / denom
        inner = eval_series(f, w, bits, min_height)
        factor = mpmath.mpf(det) ** kappa * denom ** (-weight)
        return EvalResult(factor * inner.value, abs(factor) * inner.err_bound,
                          inner.tail_note)


def hecke_value(f, weight, m, z, bits=200, min_height=None, mode="series"):
    """Value of (f | T_m) at a point, by the exact-series route (apply the
    operator to coefficients, then evaluate) or the coset route (weighted
    sum of f((az+b)/d) over ad = m, b mod d)."""
    if mode == "series":
        return eval_series(hecke.t_op(f, weight, m), z, bits, min_height)
    if mode != "coset":
        raise ValueError("mode must be 'series' or 'coset'")
    if weight % 2:
        raise ValueError("weight must be even")
    kappa = weight // 2
    with workprec(bits + _GUARD_BITS):
        zz = _as_mpc(z)
        total = mpmath.mpc(0)
        err = mpmath.mpf(0)
        outer = mpmath.mpf(m) ** (kappa - 1)
        for d in divisors(m):
            a = m // d
            factor = mpmath.mpf(m) ** kappa / mpmath.mpf(d) ** weight
            for b in range(d):
                res = eval_series(f, (a * zz + b) / d, bits, min_height)
                total += factor * res.value
                err += abs(factor) * res.err_bound
        return EvalResult(outer * total, outer * err)


def hecke_value_agreement(f, weight, m, z, bits=200, min_height=None):
    """Both hecke_value routes plus their relative difference; the routes
    share no code past eval_series."""
    s = hecke_value(f, weight, m, z, bits, min_height, mode="series")
    c = hecke_value(f, weight, m, z, bits, min_height, mode="coset")
    with workprec(bits + _GUARD_BITS):
        denom = max(abs(s.value), abs(c.value))
        rel = abs(s.value - c.value) / denom if denom > 0 else mpmath.mpf(0)
    return {"series": s, "coset": c, "rel_diff": rel}


def alpha_constant(bits=200, precision=48):
    """The ratio (weight-8 Eisenstein / discriminant) at z = i; a positive
    real constant near 1187.0065."""
    e8 = forms.eisenstein(8, precision).series
    dl = forms.delta(precision).series
    with workprec(bits + _GUARD_BITS):
        zi = mpmath.mpc(0, 1)
        num = eval_series(e8, zi, bits).value
        den = eval_series(dl, zi, bits).value
        val = num / den
        assert abs(val.imag) < mpmath.mpf(2) ** (-bits // 2)
        return val.real


def cm_point():
    """(1 + sqrt(7) i) / 2; call under the target working precision."""
    return mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(7) / 2)


def cm_checks(bits=200, precision=40, tol=1e-20):
    """At the discriminant -7 point: the discriminant value is negative
    real, its positive real 12th root Omega scales the Eisenstein values to
    15 and 27*sqrt(7), and j evaluates to -3375."""
    with workprec(bits + _GUARD_BITS):
        zz = cm_point()
        d_val = eval_series(forms.delta(precision).series, zz, bits).value
        e4_val = eval_series(forms.eisenstein(4, precision).series, zz, bits).value
        e6_val = eval_series(forms.eisenstein(6, precision).series, zz, bits).value
        j_val = eval_series(forms.j_function(precision).series, zz, bits).value
        tol = mpmath.mpf(tol)
        imag_rel = abs(d_val.imag) / abs(d_val)
        omega = (-d_val.real) ** (mpmath.mpf(1) / 12)
        e4_target = 15 * omega ** 4
        e6_target = 27 * mpmath.sqrt(7) * omega ** 6
        e4_rel = abs(e4_val - e4_target) / abs(e4_target)
        e6_rel = abs(e6_val - e6_target) / abs(e6_target)
        j_rel = abs(j_val + 3375) / 3375
        checks = {
            "delta_negative_real": d_val.real < 0 and imag_rel <= tol,
            "e4_rel": e4_rel,
            "e6_rel": e6_rel,
            "j_rel": j_rel,
        }
        ok = (checks["delta_negative_real"] and e4_rel <= tol
              and e6_rel <= tol and j_rel <= tol)
        return {
            "point": "(1+sqrt(7)i)/2",
            "omega": omega,
            "delta_imag_rel": imag_rel,
            "e4_rel": e4_rel,
            "e6_rel": e6_rel,
            "j_rel": j_rel,
            "tol": tol,
            "pass": bool(ok),
        }


def script_g_coefficient(g, k, ell, zz, m, bits=200):
    """m^(2k-ell) times the index-m Hecke value of g (weight 2ell-2k) at
    the center point: the q^m coefficient of the associated two-variable
    kernel as a function of z."""
    weight = 2 * ell - 2 * k
    res = hecke_value(g, weight, m, zz, bits, mode="series")
    with workprec(bits + _GUARD_BITS):
        factor = mpmath.mpf(m) ** (2 * k - ell)
        return EvalResult(factor * res.value, factor * res.err_bound, res.tail_note)


def _terms_past_peak(mu, ln_target):
    # coefficients of the pole-order-mu image behave like exp(4 pi sqrt(mu j));
    # against |q| = exp(-2 pi j) at height 1 the terms peak near j = mu.
    # scan past the peak until the term magnitude drops ln_target below it.
    peak = 2 * math.pi * mu
    j = max(int(mu), 4)
    while 4 * math.pi * math.sqrt(mu * j) - 2 * math.pi * j >= peak + ln_target:
        j += 1
    return j


def verify_f6i_eigen(m, n_max=10, bits=200, tol=1e-10, sigma_shift=0):
    """Numeric verification of the weight-6 elliptic-point eigenvalue
    identity for m in {5, 7}: the exact rational coefficient of q^n in
    (f6i | T_m) - sigma_5(m) f6i must equal the n-th kernel coefficient
    n^5 (g|T_n)(i) built from the named form g5/g7 de-scaled by alpha.

    sigma_shift perturbs the eigenvalue and is only for negative controls."""
    if m not in (5, 7):
        raise ValueError("the identity is stated for m in {5, 7}")
    name = "g5" if m == 5 else "g7"
    pf = m * n_max + 2
    f6i = meroforms.build("f6i", pf).series
    image = hecke.t_op(f6i, 6, m)
    lhs_series = image.sub(f6i.scale(forms.sigma(5, m) + sigma_shift).truncate(image.prec))
    terms = _terms_past_peak(m * n_max, math.log(tol) - 25)
    series_precision = int(n_max * terms * 1.1) + 10
    gm = meroforms.build(name, series_precision).series
    alpha = alpha_constant(bits)
    rels = []
    notes = []
    with workprec(bits + _GUARD_BITS):
        zi = mpmath.mpc(0, 1)
        scale = 1 / alpha
        for n in range(1, n_max + 1):
            res = script_g_coefficient(gm, 3, 1, zi, n, bits)
            rhs = scale * res.value
            lhs = _coeff_num(lhs_series.coefficient(n))
            rel = abs(lhs - rhs) / (abs(lhs) if lhs else abs(rhs))
            rels.append(float(rel))
            notes.append(res.tail_note)
    max_rel = max(rels)
    return {
        "m": m,
        "n_max": n_max,
        "bits": bits,
        "series_precision": series_precision,
        "rels": rels,
        "max_rel": max_rel,
        "tol": tol,
        "pass": max_rel <= tol,
        "tail_notes": [x for x in notes if x],
    }


# -- truncated elliptic Poincare sums ------------------------------------

def elliptic_order(zz):
    """2 at points equivalent to i, 3 at points equivalent to the sixth
    root of unity, 1 elsewhere (numeric reduction to the fundamental
    domain)."""
    z = complex(zz)
    for _ in range(256):
        z = complex(z.real - round(z.real), z.imag)
        if abs(z) < 1 - 1e-12:
            z = -1 / z
        else:
            break
    if abs(z - 1j) < 1e-9:
        return 2
    if min(abs(z - complex(0.5, math.sqrt(3) / 2)),
           abs(z - complex(-0.5, math.sqrt(3) / 2))) < 1e-9:
        return 3
    return 1


def _bezout(c, d):
    # (a, b) with a*d - b*c == 1 for coprime (c, d)
    g, u, v = _ext_gcd(d, c)
    if g != 1:
        raise ValueError("pair is not coprime")
    return u, -v


def _ext_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def psi_truncated(seed, z, bound=40, bits=53):
    """Truncated group sum of the elliptic kernel of weight 2k with inner
    exponent ell around the seed center: matrices are enumerated as
    coprime bottom rows (c, d) with max(|c|,|d|) <= bound, each completed
    by translates T^t with |t| <= bound.

    If ell + k is not divisible by the elliptic order of the center the
    full series vanishes identically: returns 0 with a VanishingSeries
    note.  A crude tail estimate of order bound^(1-2k) is reported."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    k, ell = seed.k, seed.ell
    om = elliptic_order(_as_complex(seed.center))
    if (ell + k) % om:
        return EvalResult(mpmath.mpc(0) if bits > 53 else 0j, mpmath.mpf(0),
                          "VanishingSeries: ell + k = %d not divisible by the "
                          "elliptic order %d of the center" % (ell + k, om))
    note = "tail estimate O(bound^%d), not certified" % (1 - 2 * k)
    # each route rounds the tail estimate at its own working precision
    if bits <= 53:
        total = _psi_sum(k, ell, _as_complex(seed.center), _as_complex(z), bound)
        return EvalResult(total, mpmath.mpf(bound) ** (1 - 2 * k), note)
    # 16 bits for the units each summand loses in its quotients and
    # products, and log2 of the summand count for their sum
    frac = bits + _GUARD_BITS + 16 + ((2 * bound + 1) ** 3).bit_length()
    fixed = _fixed_type(frac)
    with workprec(bits + _GUARD_BITS):
        center, pt = _as_mpc(seed.center), _as_mpc(z)
        near_pole = functools.partial(_psi_near_pole, k, ell, center, pt, frac, bits)
        total = _psi_sum(k, ell, fixed.from_mpc(center), fixed.from_mpc(pt), bound, near_pole)
        return EvalResult(total.to_mpc(), mpmath.mpf(bound) ** (1 - 2 * k), note)


def _psi_near_pole(k, ell, center, z, frac, bits, x, c, d, t):
    """For ell < 0, the summand at row (c, d) and translate t when its
    x = (w - center) / (w - conj(center)) lies too close to 0 for units of
    2^-frac, else None.

    The fixed point holds x to a few units, absolute, so x^ell keeps its
    relative precision only while x spans bits + _GUARD_BITS bits or more.
    Below that the summand is retaken with the unit squared, and again,
    until x does; it comes back as a fixed point of 2^-frac.  A translate
    within 2^-bits of the center is refused with RegionGuard."""
    if max(abs(x.re), abs(x.im)) >> (bits + _GUARD_BITS):
        return None
    w2k = -2 * k
    a, b = _bezout(c, d)
    fine = frac
    while True:
        fine *= 2
        fixed = _fixed_type(fine)
        zz, zc = fixed.from_mpc(center), fixed.from_mpc(z)
        denom = c * zc + d
        w = (a * zc + b) / denom + t
        diff = w - zz
        if not max(abs(diff.re), abs(diff.im)) >> (fine - bits - 1):
            raise RegionGuard(
                "evaluation point lies within 2^-%d of the orbit of the center (pole "
                "of the kernel): w near center at row (%d, %d), t = %d" % (bits, c, d, t))
        dzbar = w - zz.conjugate()
        x = diff / dzbar
        if max(abs(x.re), abs(x.im)) >> (bits + _GUARD_BITS):
            term = denom ** w2k * dzbar ** w2k * x ** ell
            shift = fine - frac
            return _fixed_type(frac)(term.re >> shift, term.im >> shift)


class _Fixed:
    """A Gaussian fixed-point number (re + i im) / 2^F with int parts, F
    being the class attribute set by _fixed_type.  type(x)(0) is zero; other
    ints are taken as parts already scaled by 2^F.

    Sums with ints and with each other are exact.  A product is floored to
    F fractional bits, which costs under one unit of 2^-F per part.  A
    quotient x / y takes one integer division r = 2^(3F) // (c^2 + d^2) for
    y = c + d i, and is off by under 1 + |x| |y| units per part; negative
    powers start from the reciprocal."""

    __slots__ = ("re", "im")
    F = 0

    def __init__(self, re, im=0):
        self.re = re
        self.im = im

    @classmethod
    def from_mpc(cls, v):
        """The value of an mpc, exact where its parts' last bits weigh at
        least 2^-F, else cut toward zero."""
        return cls(_mpf_to_fixed(v.real, cls.F), _mpf_to_fixed(v.imag, cls.F))

    def to_mpc(self):
        """The value rounded to the working precision."""
        return mpmath.mpc(mpmath.mpf((self.re, -self.F)), mpmath.mpf((self.im, -self.F)))

    def __add__(self, other):
        if other.__class__ is int:
            return self.__class__(self.re + (other << self.F), self.im)
        return self.__class__(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if other.__class__ is int:
            return self.__class__(self.re - (other << self.F), self.im)
        return self.__class__(self.re - other.re, self.im - other.im)

    def __rmul__(self, n):
        # n * self for an int n
        return self.__class__(n * self.re, n * self.im)

    def __mul__(self, other):
        f = self.F
        a, b, c, d = self.re, self.im, other.re, other.im
        return self.__class__((a * c - b * d) >> f, (a * d + b * c) >> f)

    def __truediv__(self, other):
        f = self.F
        a, b, c, d = self.re, self.im, other.re, other.im
        r = (1 << 3 * f) // (c * c + d * d)
        return self.__class__(((a * c + b * d) * r) >> 2 * f, ((b * c - a * d) * r) >> 2 * f)

    def __pow__(self, n):
        # binary powering on the int parts, squaring with two products
        f = self.F
        a, b = self.re, self.im
        if n < 0:
            r = (1 << 3 * f) // (a * a + b * b)
            a, b, n = (a * r) >> f, (-b * r) >> f, -n
        elif n == 0:
            return self.__class__(1 << f)
        re = None
        while True:
            if n & 1:
                if re is None:
                    re, im = a, b
                else:
                    re, im = (re * a - im * b) >> f, (re * b + im * a) >> f
            n >>= 1
            if not n:
                return self.__class__(re, im)
            a, b = ((a + b) * (a - b)) >> f, (a * b) >> (f - 1)

    def conjugate(self):
        return self.__class__(self.re, -self.im)

    def __eq__(self, n):
        # against an int n only
        return self.re == n << self.F and not self.im


@functools.lru_cache(maxsize=64)
def _fixed_type(frac):
    """The _Fixed class with 2^-frac as its unit."""
    return type("_Fixed%d" % frac, (_Fixed,), {"__slots__": (), "F": frac})


def _mpf_to_fixed(v, frac):
    # _mpf_ is (sign, mantissa, exponent, bit count): the mantissa is
    # unsigned, so the sign is applied here
    sign, man, exp, _ = v._mpf_
    shift = exp + frac
    n = man << shift if shift >= 0 else man >> -shift
    return -n if sign else n


def _psi_sum(k, ell, zz, zc, bound, near_pole=None):
    """The truncated sum over rows (c, d) and translates t, generic over the
    scalar type: complex for machine precision, _Fixed above it.  For
    ell < 0 the complex route refuses a summand whose x ** ell leaves
    binary64, at an exact pole or within rounding of one, and the fixed
    route hands each x to near_pole(x, c, d, t), which returns None or the
    summand retaken at a finer unit.

    The complex route computes each pair of rows (c, d) and (-c, -d) once.
    _bezout(-c, -d) is -_bezout(c, d), and every operation of a summand is
    symmetric under a change of sign in round-to-nearest: int times complex,
    complex sums, complex division and the even power -2k.  So w0 and every
    summand of the two rows agree bit for bit, up to the sign of a zero
    part, which does not change a sum that starts at +0.  The summands of
    each row with c < 0, and of (0, -1), are kept on a stack, and its
    mirror adds them again in the same t order: the rows with c > 0 meet
    the mirrors in exactly the reverse order, so each is the top of the
    stack.  The stack holds about half the summands, so it grows as bound^3:
    a peak of 2.7 MiB at bound 30, 6.3 MiB at bound 40 and 97 MiB at
    bound 100 (tracemalloc).  Rows are shared only for k <= 50: CPython
    raises a complex to an integer power of magnitude up to 100 by repeated
    squaring, which is sign-symmetric for an even power, but above that
    takes a polar power, whose angle atan2(-y, -x) differs from atan2(y, x)
    by a rounded pi.  The fixed route
    computes every row, because _Fixed floors its products toward -infinity,
    so a row and its negative differ in the last units."""
    zzbar = zz.conjugate()
    w2k = -2 * k
    total = type(zc)(0)
    share = isinstance(zc, complex) and k <= 50
    stack = []
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(abs(c), abs(d)) != 1:
                continue
            if share and (c > 0 or (c == 0 and d == 1)):
                for term in stack.pop():
                    total += term
                continue
            a, b = _bezout(c, d)
            denom = c * zc + d
            base = denom ** w2k
            w0 = (a * zc + b) / denom
            terms = []
            for t in range(-bound, bound + 1):
                w = w0 + t
                dzbar = w - zzbar
                x = (w - zz) / dzbar
                if ell < 0 and near_pole is not None:
                    term = near_pole(x, c, d, t)
                    if term is not None:
                        total += term
                        continue
                try:
                    term = base * dzbar ** w2k * x ** ell
                except (OverflowError, ZeroDivisionError):
                    _refuse_pole(x, ell, c, d, t)
                    raise
                total += term
                if share:
                    terms.append(term)
            if share:
                stack.append(terms)
    return total


def _refuse_pole(x, ell, c, d, t):
    """Raise RegionGuard when the binary64 x ** ell fails, for ell < 0: x is
    0, or so near it that x ** ell overflows or x ** -ell underflows to 0."""
    try:
        x ** ell
    except (OverflowError, ZeroDivisionError):
        if x == 0:
            where = "in the orbit of the center (pole of the kernel): w = center"
        else:
            where = ("within rounding of the orbit of the center (pole of the kernel): "
                     "w near center")
        raise RegionGuard("evaluation point lies %s at row (%d, %d), t = %d"
                          % (where, c, d, t)) from None


def psi_section_check(bound=40, bits=53, tol=1e-3, precision=40):
    """The normalization check: the truncated (k=3, ell=-1, center=i) sum
    at z = 2i against -pi*alpha/8 times the exact series of delta/E6 at 2i;
    reports the relative difference.

    The proportionality constant is forced by matching elliptic principal
    parts at the center: the full sum has leading part
    2*omega_i*(z-conj(i))^-6 X^-1 with omega_i = 2, while delta/E6 has
    elliptic residue -2^5/(pi*alpha) there (from E6'(i) = -pi*i*E4(i)^2),
    and the weight-6 cusp space is zero, so the two sides agree exactly."""
    seed = PoincareSeed(3, -1, HPoint(0, 1))
    psi = psi_truncated(seed, HPoint(0, 2), bound, bits)
    ref_bits = max(bits, 80)
    with workprec(ref_bits + _GUARD_BITS):
        f6i = meroforms.build("f6i", precision)
        ref_val = eval_series(f6i.series, mpmath.mpc(0, 2), ref_bits,
                              min_height=f6i.validity_height).value
        alpha = alpha_constant(ref_bits)
        target = -mpmath.pi * alpha / 8 * ref_val
        rel = abs(mpmath.mpc(psi.value) - target) / abs(target)
    return {
        "bound": bound,
        "bits": bits,
        "psi": psi,
        "target_re": target.real,
        "rel": float(rel),
        "tol": tol,
        "pass": float(rel) <= tol,
    }


def psi_two_variable_check(k, ell, center, z, n, bound=40, bits=53, tol=1e-2):
    """The index-n Hecke operator applied to the kernel in the two
    variables separately: in z via the coset sum of transformed arguments,
    in the center via the rescaled sum over centers (r^2 center + r j)/n;
    the proposition asserts equality, checked here on truncated sums.
    Both sides are summed in binary64: bits sets the precision of each psi
    sum, so above 53 it adds time but no precision to the result.

    For ell >= 0 the kernel has no pole at the center and the full sum is a
    cusp form of weight 2k; where that space is zero both sides are
    truncation noise, so the check is refused as vacuous."""
    if n < 1:
        raise ValueError("operator index must be >= 1")
    if ell >= 0 and forms.dim_cusp(2 * k) == 0:
        raise ValueError(
            "vacuous check: for ell >= 0 the full sum is a weight-%d cusp form and "
            "that space is zero, so both sides would be truncation noise" % (2 * k))
    pt = _as_complex(z)
    cz = _as_complex(center)
    seed = PoincareSeed(k, ell, cz)
    tails = 0.0
    # z-side coset sum
    lhs = 0j
    for d in divisors(n):
        a = n // d
        for b in range(d):
            w = (a * pt + b) / d
            res = psi_truncated(seed, w, bound, bits)
            lhs += complex(res.value) / d ** (2 * k)
            tails += float(res.err_bound) / d ** (2 * k)
    lhs *= n ** (2 * k - 1)
    tails *= n ** (2 * k - 1)
    # center-side sum
    rhs = 0j
    for r in divisors(n):
        block = 0j
        for j in range(n // r):
            seed_r = PoincareSeed(k, ell, (r * r * cz + r * j) / n)
            res = psi_truncated(seed_r, pt, bound, bits)
            block += complex(res.value)
            tails += float(res.err_bound) * r ** (2 * k) / n
        rhs += r ** (2 * k) * block
    rhs /= n
    denom = max(abs(lhs), abs(rhs))
    rel = abs(lhs - rhs) / denom if denom else 0.0
    return {
        "n": n,
        "lhs": lhs,
        "rhs": rhs,
        "rel": float(rel),
        "tail_sum": tails,
        "tol": tol,
        "pass": float(rel) <= tol,
    }
