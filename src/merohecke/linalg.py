"""Exact linear algebra over the rationals, enough for small Hecke matrices."""

from fractions import Fraction
from math import gcd, lcm

from .qseries import _dec_str, as_coeff, ratio, terms_str


def rref(rows):
    """Reduced row echelon form (new_rows, pivot_cols), zero rows dropped and
    entries int when integral, else Fraction.  Fraction-free Gauss-Jordan:
    rows scaled to integers, a row cleared by a * row - b * pivot_row and
    divided by its gcd, each pivot row divided by its pivot once at the end."""
    rows = [[x.numerator * (den // x.denominator) for x in r]
            for r in rows for den in (lcm(*(x.denominator for x in r)),)]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                g = gcd(prow[col], row[col])
                a, b = prow[col] // g, row[col] // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return [[ratio(x, row[col]) for x in row] for row, col in zip(rows, pivots)], pivots


def mat_identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    row[j] += x * bt[j]
    return out

def mat_solve(a, b):
    """Solve A x = b exactly; returns x or None when A is singular."""
    d = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(d)]
    red, pivots = rref(aug)
    if len(red) < d or pivots != list(range(d)):
        return None
    return [red[i][d] for i in range(d)]


def mat_inverse(a):
    d = len(a)
    if d == 0:
        return []
    aug = [list(a[i]) + mat_identity(d)[i] for i in range(d)]
    red, pivots = rref(aug)
    if len(red) < d or pivots[:d] != list(range(d)):
        return None
    return [row[d:] for row in red]


def charpoly(a, scale=1):
    """Characteristic polynomial det(xI - scale*A), ascending coefficients,
    monic, for an int or Fraction scale.

    Faddeev-LeVerrier on the integer matrix L*A, L the common denominator
    of A, mapped back by one scale_roots(p, scale/L); the loop's divisions
    by k are exact because charpoly(L*A) has integer coefficients.
    """
    d = len(a)
    if d == 0:
        return [1]
    den = lcm(*(x.denominator for row in a for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    m = mat_identity(d)
    for k in range(1, d):
        m = mat_mul(b, m)
        c = -sum(m[i][i] for i in range(d)) // k
        coeffs[d - k] = c
        for i in range(d):
            m[i][i] += c
    # the last step reads only the trace of b * m
    coeffs[0] = -sum(x * m[t][i] for i, row in enumerate(b) for t, x in enumerate(row)) // d
    return scale_roots(coeffs, Fraction(scale, den))


def scale_roots(p, c):
    """c^d * p(x/c) for an ascending degree-d polynomial p: the
    characteristic polynomial of c*A when p is that of A.  Coefficient e is
    built once, from the integer powers u^(d-e) and v^(d-e) of c = u/v."""
    d = len(p) - 1
    u, v = c.numerator, c.denominator
    return [ratio(x.numerator * u ** (d - e), x.denominator * v ** (d - e))
            for e, x in enumerate(p)]


def poly_str(coeffs):
    """Human form in x of an ascending coefficient list."""
    return terms_str(((e, _dec_str(coeffs[e])) for e in range(len(coeffs) - 1, -1, -1)), "x")


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return as_coeff(acc) if isinstance(acc, (int, Fraction)) else acc
