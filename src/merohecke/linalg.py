"""Exact linear algebra over the rationals, enough for small Hecke matrices."""

from fractions import Fraction

from .qseries import as_coeff


def rref(rows):
    """Reduced row echelon form in place semantics: returns (new_rows, pivot_cols).

    Zero rows are dropped.  Entries stay exact (int/Fraction).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = Fraction(rows[r][col])
        rows[r] = [as_coeff(Fraction(x) / lead) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [as_coeff(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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

def mat_scale(a, c):
    return [[as_coeff(c * x) for x in row] for row in a]


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


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


def charpoly(a):
    """Characteristic polynomial det(xI - A), ascending coefficients, monic.

    Faddeev-LeVerrier: exact over the rationals, fine for the small
    dimensions that appear here.
    """
    d = len(a)
    if d == 0:
        return [1]
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    m = mat_identity(d)
    c = 1
    for k in range(1, d + 1):
        m = mat_mul(a, m)
        c = as_coeff(Fraction(-mat_trace(m), k))
        coeffs[d - k] = c
        for i in range(d):
            m[i][i] = as_coeff(m[i][i] + c)
    return [as_coeff(x) for x in coeffs]


def poly_str(coeffs, var="x"):
    """Human form of an ascending coefficient list."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            term = str(mag)
        else:
            vp = var if e == 1 else "%s^%d" % (var, e)
            term = vp if mag == 1 else "%s*%s" % (mag, vp)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return as_coeff(acc) if isinstance(acc, (int, Fraction)) else acc
