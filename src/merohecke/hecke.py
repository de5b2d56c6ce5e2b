"""Hecke operators on truncated q-expansions in arbitrary even weight.

The index-m operator in weight w = 2*kappa sends coefficients to

    c'(n) = sum over r | gcd(m, n) of r^(2 kappa - 1) * c(m n / r^2)

with the convention gcd(m, 0) = m, so the constant term picks up the full
divisor sum.  Also the elementary operators: V_m (coefficient at n moves to
m n) and U_m (coefficient at m n moves to n).  T_m decomposes as
sum over r | m of r^(2 kappa - 1) V_r U_{m/r}, and the direct formula here
is tested against that decomposition.
"""

import math
from fractions import Fraction

from .qseries import InsufficientPrecision, LaurentSeries, first_mismatch


def _ceil_div(a, b):
    return -((-a) // b)


def _weight_power(r, weight):
    """r^(weight - 1), exact, also for nonpositive weights."""
    e = weight - 1
    if e >= 0:
        return r ** e
    return Fraction(1, r ** (-e))


def divisors(m):
    out = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                out.append(m // i)
        i += 1
    out.sort()
    return out


def v_op(f, m):
    """Index raising: coefficient at m*n equals the input coefficient at n."""
    if m < 1:
        raise ValueError("operator index must be >= 1")
    lo = m * f.val
    hi = m * (f.prec - 1) + 1
    out = [0] * (hi - lo)
    for i, c in enumerate(f.coeffs):
        if c:
            out[m * (f.val + i) - lo] = c
    return LaurentSeries(lo, out, hi)


def u_op(f, m):
    """Index lowering: coefficient at n equals the input coefficient at m*n."""
    if m < 1:
        raise ValueError("operator index must be >= 1")
    lo = _ceil_div(f.val, m)
    hi = _ceil_div(f.prec, m)
    if hi <= lo:
        raise InsufficientPrecision("window [%d, %d) too narrow for U_%d" % (f.val, f.prec, m))
    out = [f.coefficient(m * n) for n in range(lo, hi)]
    return LaurentSeries(lo, out, hi)


def t_op(f, weight, m):
    """Index-m Hecke operator in the given even weight, direct formula."""
    if m < 1:
        raise ValueError("operator index must be >= 1")
    if weight % 2:
        raise ValueError("weight must be even")
    lo = m * f.val if f.val < 0 else _ceil_div(f.val, m)
    hi = _ceil_div(f.prec, m)
    if hi <= lo:
        raise InsufficientPrecision(
            "window [%d, %d) too narrow for the index-%d operator" % (f.val, f.prec, m))
    divs = divisors(m)
    out = []
    for n in range(lo, hi):
        g = m if n == 0 else math.gcd(m, abs(n))
        acc = 0
        for r in divs:
            if g % r:
                continue
            idx = m * n // (r * r)
            if idx >= f.prec:
                # only reachable for windows that end at or below 0
                raise InsufficientPrecision(
                    "coefficient %d of the input is outside its window" % idx)
            c = f.coefficient(idx)
            if c:
                acc += _weight_power(r, weight) * c
        out.append(acc)
    return LaurentSeries(lo, out, hi)


def t_op_via_uv(f, weight, m):
    """The decomposition sum over r | m of r^(weight-1) V_r U_{m/r}, on the
    window where every piece is defined; an independent route used in tests."""
    pieces = [v_op(u_op(f, m // r), r).scale(_weight_power(r, weight))
              for r in divisors(m)]
    lo = min(p.val for p in pieces)
    hi = min(p.prec for p in pieces)
    if hi <= lo:
        raise InsufficientPrecision("window too narrow for the V/U decomposition")
    vals = [sum(p.coefficient(n) for p in pieces) for n in range(lo, hi)]
    return LaurentSeries(lo, vals, hi)


def t_op_commutes_check(f, weight, m, n):
    """Composition in both orders agrees on the union window, and for
    coprime indices also with the single index-m*n operator."""
    ab = t_op(t_op(f, weight, m), weight, n)
    ba = t_op(t_op(f, weight, n), weight, m)
    if first_mismatch(ab, ba) is not None:
        return False
    if math.gcd(m, n) == 1:
        return first_mismatch(ab, t_op(f, weight, m * n)) is None
    return True
