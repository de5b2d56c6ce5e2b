"""Arbitrary-precision numeric layer: evaluation of exact q-series on the
upper half-plane, slash and Hecke values by two independent routes, the
special-point checks at (1+sqrt(7)i)/2, the coefficient-wise numeric
verification of the weight-6 eigenvalue identities, and truncated elliptic
Poincare sums with their two-variable Hecke relation.

Tail bounds are heuristic (ratio test over the last quarter of the stored
window) and are surfaced in every result rather than hidden; truncated
group sums report a crude O(B^(1-2k)) tail estimate.

Both numeric loops sum on pairs of Python ints scaled by 2^F, in the
operations of the Gaussian fixed-point type _Fixed written out.  Sums are
exact; each product is floored to F fractional bits and each quotient takes
one integer division, so every operation is off by a few units of 2^-F
(fixed-point error accounting as in Brent and Zimmermann, Modern Computer
Arithmetic, ch. 3).  F is planned from the job, not found by retry, and
each total is rounded to an mpc at the working precision bits + 30:
- eval_series sums the stored window by Horner's rule, one product per
  term, with F = bits + 30 + 8 + log2 of the error count in units, a few
  per term plus the terms' size weighted by degree (for the error of q),
  less log2 of the leading coefficient; see eval_series.
- A truncated Poincare sum at bits > 53 uses
  F = bits + 30 + 16 + log2((2 bound + 1)^3), the last term for the count
  of summands.  At bits <= 53 it is summed in binary64 complex instead.
The spare bits keep the error below the working precision, so from
bits = 103 up the 40 printed digits (about 133 bits) are those of the value
rounded at bits + 30, but for a tie at a digit boundary; below, the printed
digits past bits + 30 are rounding noise.
"""

import bisect
import cmath
import functools
import math
from fractions import Fraction

import mpmath
from mpmath import workprec

from . import forms, hecke, meroforms
from .hecke import cosets, divisors, weight_power
from .qseries import Immutable


_GUARD_BITS = 30


class RegionGuard(Exception):
    """Evaluation requested at or below the documented validity height, or
    at a pole of the requested sum."""


class DivergentTail(Exception):
    """Observed coefficient growth beats |q| decay on the stored window."""


class EvalResult(Immutable):
    __slots__ = ("value", "err_bound", "tail_note")

    def __init__(self, value, err_bound, tail_note=None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "err_bound", err_bound)
        object.__setattr__(self, "tail_note", tail_note)

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


class HPoint(Immutable):
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


class PoincareSeed(Immutable):
    """Weight parameter k (the sum has weight 2k), inner exponent ell, and
    the center point; 2k >= 4 for absolute convergence."""

    __slots__ = ("k", "ell", "center")

    def __init__(self, k, ell, center):
        if 2 * k < 4:
            raise ValueError("need 2k >= 4 for absolute convergence")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "center", center)

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


def _log2_abs(c):
    # binary64 log2 |c| of a nonzero int or Fraction, also past the float range
    if c.__class__ is int:
        return math.log2(abs(c))
    return math.log2(abs(c.numerator)) - math.log2(c.denominator)


# fractional bits past the working precision in the planned unit; the
# unit is refined once when the value is more than 2^(_SPARE_BITS // 2)
# below the leading term the plan assumed
_SPARE_BITS = 8


def eval_series(f, z, bits=200, min_height=None):
    """Sum an exact series at a point of the upper half-plane.

    The caller owns the validity question: pass min_height for expansions
    of meromorphic quotients that only converge high in the cusp.  The
    returned bound models the unseen tail as geometric with ratio taken
    from the worst coefficient ratio in the last quarter of the window.

    With w_0, ..., w_n the stored coefficients from the first nonzero
    one, at index v, to the last, the value is q^v V(q) with
    V(q) = sum_j w_j q^j.  V is summed by Horner's rule on int pairs, one
    _Fixed product per term, and q^v is applied last, in mpmath.  The
    error of V is under 2^-F (3 (n + 1) + 2 S') with
    S' = sum_j j |w_j| |q|^(j-1), which bounds |dV/dq|: a few units per
    product and coefficient, and one unit of q times the derivative (Brent
    and Zimmermann, Modern Computer Arithmetic, sections 3.1 and 4.4.3).
    The plan takes F, never below bits + 30, so that this is at most
    2^-(bits + 30 + _SPARE_BITS) |w_0|, from binary64 logs of the
    coefficients, so the terms may cancel down to |w_0| at no loss; the
    trailing terms that are each under 2^-F / (4 (n + 1)) are left out.  If
    |V| comes out more than 2^(_SPARE_BITS // 2) below |w_0|, F is raised
    once by that deficit, to at most twice the plan, so that a zero of the
    series still ends.  The value is rounded once, to bits + 30."""
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
        coeffs = f.coeffs
        lg = [_log2_abs(c) if c else None for c in coeffs]
        nonzero = [i for i, v in enumerate(lg) if v is not None]
        if not nonzero:
            return EvalResult(mpmath.mpc(0), mpmath.mpf(0), "all stored coefficients are zero")
        lq = -2 * math.pi * float(y) / math.log(2)  # log2 |q|
        frac = _plan_unit(lg, nonzero, lq, bits)
        q, qa = _q_point(z, frac, zz)
        bound, note = _tail_bound(f, lg, nonzero, qa, y, bits)
        first = nonzero[0]
        cap = 2 * frac
        while True:
            re, im = _horner(coeffs, lg, nonzero, lq, q, frac)
            # log2 |V| is at least this
            got = max(abs(re), abs(im)).bit_length() - 1 - frac
            deficit = math.ceil(lg[first] - got)
            if deficit <= _SPARE_BITS // 2 or frac == cap:
                break
            # the one raise: with frac == cap the next pass is the last
            frac = cap = min(frac + deficit, cap)
            q, _ = _q_point(z, frac, zz)
        with workprec(bits + _GUARD_BITS + _SPARE_BITS):
            value = mpmath.mpc(mpmath.mpf((re, -frac)), mpmath.mpf((im, -frac)))
            value *= q ** (f.val + first)
        return EvalResult(+value, bound, note)


def _plan_unit(lg, nonzero, lq, bits):
    """The unit 2^-F of eval_series: F = bits + 30 + _SPARE_BITS plus
    log2 (3 (n + 1) + 2 S') less log2 |w_0|, and never below bits + 30.
    lg holds log2 |c| of each coefficient (None for 0), nonzero the indices
    of the nonzero ones, and lq is log2 |q|."""
    first, last = nonzero[0], nonzero[-1]
    # log2 S', the terms' magnitudes weighted by their degree
    slope = [lg[i] + math.log2(i - first) + (i - first - 1) * lq for i in nonzero[1:]]
    top = max(slope, default=-math.inf)
    if slope:
        top += math.log2(math.fsum(2 ** (s - top) for s in slope))
    err = max(math.log2(3 * (last - first + 1)), top + 1) + 1
    return bits + _GUARD_BITS + max(_SPARE_BITS + math.ceil(err - lg[first]), 0)


def _tail_bound(f, lg, nonzero, qa, y, bits):
    """The tail model of eval_series, (bound, note), or DivergentTail: the
    last term times the geometric series of the worst coefficient ratio in
    the last quarter of the window times |q|, or continued flat without a
    ratio pair.  Near r = 1 the factor 1 / (1 - r) multiplies the rounding
    of r, so the bound is computed _GUARD_BITS past the working precision
    and rounded to it once."""
    coeffs = f.coeffs
    last = nonzero[-1]
    length = f.prec - f.val
    sample = nonzero[bisect.bisect_left(nonzero, length - max(2, (length + 3) // 4)):]
    note = None
    with workprec(bits + 2 * _GUARD_BITS):
        last_mag = abs(_coeff_num(coeffs[last])) * qa ** (f.val + last)
        if len(sample) < 2:
            # no consecutive growth information; model continuation flat
            bound = last_mag * qa ** (length - last) / (1 - qa)
            note = "no nonzero ratio pair in tail sample; flat-continuation bound"
        else:
            c, prev = _max_ratio_pair(coeffs, lg, sample, bits + _GUARD_BITS)
            ratio = abs(_coeff_num(c)) / abs(_coeff_num(prev))
            r = ratio * qa
            if r >= 1:
                raise DivergentTail(
                    "tail ratio %s * |q| = %s is >= 1 at y = %s"
                    % (mpmath.nstr(ratio, 8), mpmath.nstr(r, 8), mpmath.nstr(y, 8)))
            bound = last_mag * r / (1 - r)
    return +bound, note


def _horner(coeffs, lg, nonzero, lq, q, frac):
    """sum_j w_j q^j from the first nonzero coefficient as int parts (re, im)
    in units of 2^-frac, by Horner's rule with _Fixed's product, up to the
    last term worth a quarter unit over all terms (the ones past it are
    worth less together).  An int c enters as c << frac, p/r as (p << frac) // r."""
    first = nonzero[0]
    floor = -frac - math.log2(nonzero[-1] - first + 1) - 2
    cut = next(i for i in reversed(nonzero) if lg[i] + (i - first) * lq >= floor)
    qr, qi = _mpf_to_fixed(q.real, frac), _mpf_to_fixed(q.imag, frac)
    re = im = 0
    for c in reversed(coeffs[first:cut + 1]):
        re, im = (re * qr - im * qi) >> frac, (re * qi + im * qr) >> frac
        re += c << frac if c.__class__ is int else (c.numerator << frac) // c.denominator
    return re, im


def _q_point(z, frac, zz):
    """q = exp(2 pi i z) and |q| to about 2^-(frac + 16), with z taken at
    that precision plus the bits of its integer part (zz is z at the
    working precision).  Powers of |q| in the tail bound start from this
    |q|, so they keep the working precision."""
    with workprec(frac + 16 + int(abs(zz.real)).bit_length()):
        q = mpmath.exp(2j * mpmath.pi * _as_mpc(z))
        return q, abs(q)


def _max_ratio_pair(coeffs, lg, sample, prec):
    """The pair (c, prev) of consecutive nonzero coefficients at the
    indices sample with the largest |c / prev|, chosen by their binary64
    logs in lg, and among near ties by the ratios to prec bits.  Geometric
    growth, from a pole of the series in the upper half-plane, makes the
    whole tail a near tie."""
    logs = [(lg[i] - lg[p], i, p) for p, i in zip(sample, sample[1:])]
    best = max(logs)[0]
    # the logs of coefficients up to 2^6000 are good to about 1e-12
    near = [(i, p) for v, i, p in logs if v >= best - 1e-9]
    if len(near) > 1:
        shift = max(0, prec + 2 - math.floor(best))

        def scaled(ip):
            c, p = coeffs[ip[0]], coeffs[ip[1]]
            return (abs(c.numerator * p.denominator) << shift) // abs(c.denominator * p.numerator)
        near.sort(key=scaled)
    i, p = near[-1]
    return coeffs[i], coeffs[p]


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


def hecke_value(f, weight, m, z, bits=200, min_height=None):
    """Value of (f | T_m) at a point: the operator applied to the exact
    coefficients, then the image evaluated."""
    return eval_series(hecke.t_op(f, weight, m), z, bits, min_height)


def hecke_value_agreement(f, weight, m, z, bits=200, min_height=None):
    """hecke_value against the coset route, the textbook
    m^(w/2 - 1) * sum of f |_w ((a, b), (0, d)) over hecke.cosets(m), plus
    their relative difference; the routes share no code past eval_series."""
    s = hecke_value(f, weight, m, z, bits, min_height)
    with workprec(bits + _GUARD_BITS):
        parts = [slash_value(f, weight, ((a, b), (0, d)), z, bits, min_height)
                 for a, b, d in cosets(m)]
        outer = mpmath.mpf(m) ** (weight // 2 - 1)
        c = EvalResult(outer * mpmath.fsum(p.value for p in parts),
                       outer * mpmath.fsum(p.err_bound for p in parts))
        denom = max(abs(s.value), abs(c.value))
        rel = abs(s.value - c.value) / denom if denom > 0 else mpmath.mpf(0)
    return {"series": s, "coset": c, "rel_diff": rel}


def alpha_constant(bits=200):
    """The ratio (weight-8 Eisenstein / discriminant) at z = i; a positive
    real constant near 1187.0065."""
    e8 = forms.eisenstein(8, 48).series
    dl = forms.delta(48).series
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
        ok = (d_val.real < 0 and imag_rel <= tol and e4_rel <= tol
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
    res = hecke_value(g, weight, m, zz, bits)
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


def verify_f6i_eigen(m, n_max=10, bits=200, tol=1e-10):
    """Numeric verification of the weight-6 elliptic-point eigenvalue
    identity for m in {5, 7}: the exact rational coefficient of q^n in
    (f6i | T_m) - sigma_5(m) f6i must equal the n-th kernel coefficient
    n^5 (g|T_n)(i) built from the named form g5/g7 de-scaled by alpha."""
    if m not in (5, 7):
        raise ValueError("the identity is stated for m in {5, 7}")
    name = "g5" if m == 5 else "g7"
    pf = m * n_max + 2
    f6i = meroforms.build("f6i", pf).series
    image = hecke.t_op(f6i, 6, m)
    lhs_series = image.sub(f6i.scale(forms.sigma(5, m)).truncate(image.prec))
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
    domain), i or rho within 4 err: half a unit of the given point, scaled
    by each inversion z -> -1/z, which adds 4 units."""
    z, err = complex(zz), abs(complex(zz)) * 2.0 ** -53
    for _ in range(256):
        z = complex(z.real - round(z.real), z.imag)
        if abs(z) < 1 - 1e-12:
            err = (err / abs(z) + 4 * 2.0 ** -53) / abs(z)
            z = -1 / z
        else:
            break
    if abs(z - 1j) < 4 * err:
        return 2
    if min(abs(z - complex(0.5, math.sqrt(3) / 2)),
           abs(z - complex(-0.5, math.sqrt(3) / 2))) < 4 * err:
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
    by translates T^t with |t| <= bound.  Rows (c, d) and (-c, -d) give
    the same summands, so each pair is computed once and counted twice.

    If ell + k is not divisible by the elliptic order of the center (that
    of i or rho if it is one within binary64 rounding) the full series
    vanishes identically: returns 0 with a VanishingSeries note.  A crude
    tail estimate of order bound^(1-2k) is reported."""
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
        row = _binary64_row(k, ell, _as_complex(seed.center), bound)
        total = _psi_sum(k, _as_complex(z), bound, row)
        return EvalResult(total, mpmath.mpf(bound) ** (1 - 2 * k), note)
    # 16 bits for the units each summand loses in its quotients and
    # products, and log2 of the summand count for their sum
    frac = bits + _GUARD_BITS + 16 + ((2 * bound + 1) ** 3).bit_length()
    fixed = _fixed_type(frac)
    with workprec(bits + _GUARD_BITS):
        center, pt = _as_mpc(seed.center), _as_mpc(z)
        near_pole = functools.partial(_psi_near_pole, k, ell, center, pt, frac, bits)
        row = _fixed_row(k, ell, fixed.from_mpc(center), bound, bits, near_pole)
        total = _psi_sum(k, fixed.from_mpc(pt), bound, row)
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
    powers start from the reciprocal; _horner and _fixed_row write these
    rules out on int pairs."""

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
        f = self.F
        a, b = self.re, self.im
        if n < 0:
            r = (1 << 3 * f) // (a * a + b * b)
            a, b, n = (a * r) >> f, (-b * r) >> f, -n
        elif n == 0:
            return self.__class__(1 << f)
        return self.__class__(*_ipow(a, b, n, f))

    def conjugate(self):
        return self.__class__(self.re, -self.im)

    def __eq__(self, n):
        # against an int n only
        return self.re == n << self.F and not self.im


def _ipow(a, b, n, f):
    # (a + b i)^n, n >= 1, on parts scaled by 2^f: binary powering, squaring with two products
    while not n & 1:
        a, b, n = ((a + b) * (a - b)) >> f, (a * b) >> (f - 1), n >> 1
    re, im = a, b
    while n > 1:
        n >>= 1
        a, b = ((a + b) * (a - b)) >> f, (a * b) >> (f - 1)
        if n & 1:
            re, im = (re * a - im * b) >> f, (re * b + im * a) >> f
    return re, im


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


def _psi_sum(k, zc, bound, row):
    """The truncated sum over rows (c, d) and translates t, generic over the
    scalar type of zc: complex for machine precision, _Fixed above it.  The
    route's kernel row(base, w0, c, d) sums the summands at w = w0 + t over
    |t| <= bound, with base = (c z + d)^-2k and w0 = (a z + b) / (c z + d).

    Since -I acts trivially and the weight is even, the rows (c, d) and
    (-c, -d) give the same summands, so only the rows with c < 0 and
    (0, -1) are summed, in the loop order of c and then d, and the total is
    doubled, which is exact on both routes.  These rows come first in
    that order, so a pole is refused at the same row and t as when every
    row is summed."""
    total, w2k, rows = type(zc)(0), -2 * k, iter(_rows(bound))
    for c, d, a, b in zip(rows, rows, rows, rows):
        denom = c * zc + d
        total += row(denom ** w2k, (a * zc + b) / denom, c, d)
    return total + total


@functools.lru_cache(maxsize=32)
def _rows(bound):
    """The rows (c, d, a, b) of _psi_sum, flat: coprime (c, d) with c < 0,
    and the one with c = 0 and d < 0, (0, -1), in the order of c and then d,
    with (a, b) from _bezout."""
    return tuple(v for c in range(-bound, 1) for d in range(-bound, bound + 1 if c else 0)
                 if math.gcd(c, d) == 1 for v in (c, d) + _bezout(c, d))


def _binary64_row(k, ell, zz, bound):
    """The binary64 kernel of _psi_sum: with u = w - center and
    v = w - conj(center), from w0 - center and w0 - conj(center) per row, a
    summand base u^ell / v^(2k + ell) is one quotient, for ell < 0
    base / ((u v)^-ell v^(2k + 2 ell)).  ** raises on overflow but / gives
    inf, so a row whose sum raises or is not finite is summed again as
    base v^-2k x^ell, x = u / v, as on the fixed route, which refuses a pole
    where x ** ell fails (x is 0, or so near it that x ** ell overflows).
    At ell = 1, -1 and 2k + 2 ell = 0 the power 1 is left out: a finite y ** 1
    or y * v ** 0 is y but for the sign of a zero part, which moves no sum."""
    zzbar, m, n = zz.conjugate(), 2 * k + ell, 2 * (k + ell)

    def row(base, w0, c, d):
        u0, v0 = w0 - zz, w0 - zzbar
        s = 0j
        try:
            if ell == 0:
                for t in range(-bound, bound + 1):
                    s += base / (v0 + t) ** m
            elif ell == 1:
                for t in range(-bound, bound + 1):
                    s += base * (u0 + t) / (v0 + t) ** m
            elif ell > 0:
                for t in range(-bound, bound + 1):
                    s += base * (u0 + t) ** ell / (v0 + t) ** m
            elif n == 0:
                for t in range(-bound, bound + 1):
                    s += base / ((u0 + t) * (v0 + t)) ** -ell
            elif ell == -1:
                for t in range(-bound, bound + 1):
                    v = v0 + t
                    s += base / ((u0 + t) * v * v ** n)
            else:
                for t in range(-bound, bound + 1):
                    v = v0 + t
                    s += base / (((u0 + t) * v) ** -ell * v ** n)
            if cmath.isfinite(s):
                return s
        except (OverflowError, ZeroDivisionError):
            pass
        s = 0j
        for t in range(-bound, bound + 1):
            x = (u0 + t) / (v0 + t)
            try:
                power = x ** ell
            except (OverflowError, ZeroDivisionError):
                where = ("in the orbit of the center (pole of the kernel): w = center" if x == 0
                         else "within rounding of the orbit of the center (pole of the "
                         "kernel): w near center")
                raise RegionGuard("evaluation point lies %s at row (%d, %d), t = %d"
                                  % (where, c, d, t)) from None
            s += base * (v0 + t) ** (-2 * k) * power
        return s
    return row


def _fixed_row(k, ell, zz, bound, bits, near_pole):
    """The fixed-point kernel of _psi_sum: base v^-2k x^ell, x = u / v (u, v
    as in _binary64_row, with equal real parts), in _Fixed's int operations
    written out, x and v^-2k sharing r = 2^3F // |v|^2.  For ell < 0 and x
    below 2^(bits + _GUARD_BITS) units, near_pole(x, c, d, t) returns the
    summand retaken at a finer unit."""
    fixed, f, f2, one3, near = type(zz), zz.F, 2 * zz.F, 1 << 3 * zz.F, bits + _GUARD_BITS
    # Im x = -2 Im(center) Re(u) r, as u and v share their real part
    zr, zi, xi_r, w2k, e = zz.re, zz.im, -2 * zz.im, 2 * k, abs(ell)

    def row(base, w0, c, d):
        br, bi, ur0, ui, vi = base.re, base.im, w0.re - zr, w0.im - zi, w0.im + zi
        uivi, vi2 = ui * vi, vi * vi
        sr = si = 0
        for t in range(-bound, bound + 1):
            ur = ur0 + (t << f)
            r = one3 // (ur * ur + vi2)
            xr, xi = ((ur * ur + uivi) * r) >> f2, (xi_r * ur * r) >> f2
            if ell < 0 and not max(abs(xr), abs(xi)) >> near:
                # near_pole makes this test too, so it returns the summand
                term = near_pole(fixed(xr, xi), c, d, t)
                sr, si = sr + term.re, si + term.im
                continue
            pr, pi = _ipow((ur * r) >> f, (-vi * r) >> f, w2k, f)
            tr, ti = (br * pr - bi * pi) >> f, (br * pi + bi * pr) >> f
            if ell < 0:
                q = one3 // (xr * xr + xi * xi)
                xr, xi = (xr * q) >> f, (-xi * q) >> f
            if e > 1:
                xr, xi = _ipow(xr, xi, e, f)
            if ell:
                tr, ti = (tr * xr - ti * xi) >> f, (tr * xi + ti * xr) >> f
            sr, si = sr + tr, si + ti
        return fixed(sr, si)
    return row


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
        ref_val = eval_series(meroforms.build("f6i", precision).series, mpmath.mpc(0, 2),
                              ref_bits, min_height=meroforms.VALIDITY_HEIGHT["f6i"]).value
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
    for a, b, d in cosets(n):
        res = psi_truncated(seed, (a * pt + b) / d, bound, bits)
        lhs += complex(res.value) / d ** (2 * k)
        tails += float(res.err_bound) / d ** (2 * k)
    lhs *= weight_power(n, 2 * k)
    tails *= weight_power(n, 2 * k)
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
