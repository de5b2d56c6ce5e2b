"""Independent numeric oracles for the numeric-eval workload.

Nothing here imports merohecke.  Modular forms are evaluated from closed
forms in Jacobi theta functions and the Dedekind eta product, and the
truncated elliptic Poincare sum is re-summed directly.  Both work at the
job's bits + 64.
"""

import math

import mpmath
from mpmath import mp

EXTRA_BITS = 64

# polynomials in j from the definitions of g5 and g7, descending powers
_P5 = (1, -3480, 3838860, -1425282400, 114237825024)
_P7 = (1, -4968, 9176868, -7736486240, 2925506969154, -411526489432464,
       12317318339088384)


def _horner(coeffs, x):
    acc = mpmath.mpc(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def basic_values(tau):
    """E4, E6 and the discriminant at tau, under the caller's precision.

    With a = theta2^4, b = theta3^4, c = theta4^4 at nome exp(i pi tau):
    E4 = (a^2 + b^2 + c^2) / 2 and E6 = (b + c)(c - a)(a + b) / 2.  The
    discriminant is q * prod (1 - q^n)^24 with q = exp(2 pi i tau)."""
    nome = mpmath.exp(1j * mp.pi * tau)
    a = mpmath.jtheta(2, 0, nome) ** 4
    b = mpmath.jtheta(3, 0, nome) ** 4
    c = mpmath.jtheta(4, 0, nome) ** 4
    e4 = (a * a + b * b + c * c) / 2
    e6 = (b + c) * (c - a) * (a + b) / 2
    q = nome * nome
    disc = q * mpmath.qp(q) ** 24
    return e4, e6, disc


def form_value(name, tau):
    """Value of a named form or base series at tau (under the caller's
    precision), built from E4, E6 and the discriminant by its formula."""
    e4, e6, d = basic_values(tau)
    j = e4 ** 3 / d
    e8 = e4 * e4
    table = {
        "E4": lambda: e4,
        "E6": lambda: e6,
        "E8": lambda: e8,
        "delta": lambda: d,
        "j": lambda: j,
        "F7": lambda: e4 ** 3 + 3375 * d,
        "f6iinfty": lambda: e6 ** 3 / d + 1488 * e6,
        "f6i": lambda: d / e6,
        "G": lambda: d * d / (e4 ** 3 + 3375 * d),
        "g": lambda: e4 * e4 * e6 / (d * d),
        "g5": lambda: e8 / d * _horner(_P5, j),
        "g7": lambda: e8 / d * _horner(_P7, j),
    }
    return table[name]()


def eval_reference(name, x, y, bits):
    """Oracle value of `name` at x + i y, computed at bits + 64."""
    with mpmath.workprec(bits + EXTRA_BITS):
        tau = mpmath.mpc(mpmath.mpf(x), mpmath.mpf(y))
        return +form_value(name, tau)


# -- truncated Poincare sum -----------------------------------------------

def _ext_gcd(a, b):
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_s, s = s, old_s - qt * s
        old_t, t = t, old_t - qt * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _top_row(c, d):
    # (a, b) with a d - b c = 1, the representative fixed by the extended
    # Euclid recursion on (d, c); the translates t then run over |t| <= bound
    _, u, v = _ext_gcd(d, c)
    return u, -v


def _summands(k, ell, center, z, bound, conj):
    zc, zz = z, center
    zzbar = conj(zz)
    for c in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(abs(c), abs(d)) != 1:
                continue
            a, b = _top_row(c, d)
            jac = (c * zc + d) ** (-2 * k)
            w0 = (a * zc + b) / (c * zc + d)
            for t in range(-bound, bound + 1):
                w = w0 + t
                yield jac * (w - zzbar) ** (-2 * k) * ((w - zz) / (w - zzbar)) ** ell


def psi_reference(k, ell, center, z, bound, bits):
    """Truncated Poincare sum re-summed directly, and the sum of the
    summands' magnitudes (the scale of its rounding error).

    center and z are (x, y) string pairs.  53-bit jobs are re-summed in
    binary64 with exactly rounded (fsum) accumulation of each component;
    wider jobs in mpmath at bits + 64."""
    if bits <= 53:
        cz = complex(float(center[0]), float(center[1]))
        pz = complex(float(z[0]), float(z[1]))
        terms = list(_summands(k, ell, cz, pz, bound, lambda u: u.conjugate()))
        value = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        scale = math.fsum(abs(t) for t in terms)
        return value, scale
    with mpmath.workprec(bits + EXTRA_BITS):
        cz = mpmath.mpc(mpmath.mpf(center[0]), mpmath.mpf(center[1]))
        pz = mpmath.mpc(mpmath.mpf(z[0]), mpmath.mpf(z[1]))
        value = mpmath.mpc(0)
        scale = mpmath.mpf(0)
        for t in _summands(k, ell, cz, pz, bound, mpmath.conj):
            value += t
            scale += abs(t)
        return value, scale
