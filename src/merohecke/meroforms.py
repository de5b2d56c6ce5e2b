"""Named forms given by closed formulas in E4, E6, E8, delta and j, and
exact verification of the identities between them.

Each named form is stored as a construction string evaluated by a small
whitelisted expression interpreter, so recomputing from the recorded
formula reproduces the series bit-exactly.

The interpreter compiles a construction to coef * N / prod(atom^e): the
atoms are E_k, delta, A = E4^3 (j = A/delta) and each divisor that is not a
monomial in them, such as E4^3 + 3375*delta.  Sums go over a common
denominator, so g7 becomes E8 * sum(c_t A^t delta^(6-t)) / delta^7 and the
polynomial work runs on holomorphic series with small coefficients.  Atom
powers are built once per evaluation, and the only division is N / D at
the end, to the requested precision.  The window is the one a direct walk
of the tree with the qseries window rules gives, because every atom is
stored from its true valuation.

Forms that are quotients by a function vanishing in the upper half-plane
carry a validity height: their q-expansions are only valid above it, and
the numeric layer refuses to evaluate them lower.
"""

import ast
import functools
import itertools
import math
import re
from collections import namedtuple
from fractions import Fraction

from .qseries import (Immutable, LaurentSeries, InsufficientPrecision, ZeroLeadingCoefficient,
                      _dec_str, as_coeff, compare)
from . import forms, hecke, linalg, whbasis
from .forms import ModularForm
from .whbasis import PrincipalPart


CONSTRUCTIONS = {
    "f6iinfty": "E6^3/delta + 1488*E6",
    "f6i": "delta/E6",
    "F7": "E4^3 + 3375*delta",
    "G": "delta^2/(E4^3 + 3375*delta)",
    "g": "E4^2*E6/delta^2",
    "g5": "(E8/delta)*(j^4 - 3480*j^3 + 3838860*j^2 - 1425282400*j + 114237825024)",
    "g7": "(E8/delta)*(j^6 - 4968*j^5 + 9176868*j^4 - 7736486240*j^3"
          " + 2925506969154*j^2 - 411526489432464*j + 12317318339088384)",
}

# expansions of delta/E6 and E4^2*E6/delta^2 are valid only above the zero
# of E6 / the growth crossover at height 1; G's above the zero of its
# denominator at height sqrt(7)/2
VALIDITY_HEIGHT = {
    "f6i": 1.0,
    "g": 1.0,
    "G": math.sqrt(7) / 2,
}

_EXPECTED_WEIGHT = {
    "f6iinfty": 6, "f6i": 6, "F7": 12, "G": 12, "g": -10, "g5": -4, "g7": -4,
}

# the quadratic and quartic from the index-2 / index-3 identities on g,
# ascending; also evaluated at j = -3375 by the "jpoly-eval" id
GT2_POLY = [374784, -1512, 1]
GT3_POLY = [52796307708, -842201064, 2784384, -3000, 1]


class ExpressionError(ValueError):
    pass


_NAME_RE = re.compile(r"^E(\d+)$")


def _leaf(name, precision):
    """(atom key, ModularForm from the forms memo) of a leaf name."""
    if name in ("delta", "Delta"):
        return "delta", forms.delta(precision)
    if name in ("j", "J"):
        return "j", forms.j_function(precision)
    m = _NAME_RE.match(name)
    if m:
        k = int(m.group(1))
        return ("E", k), forms.eisenstein(k, precision)
    raise ExpressionError("unknown name %r (allowed: E<k>, delta, j)" % name)


# coef * prod(atom^e for atom, e in exps.items()) * series, of the given
# weight; series None stands for 1
_Term = namedtuple("_Term", "weight coef exps series", defaults=(None,))


class _Compiler:
    """One evaluation of a construction at working precision p.

    Atoms are E_k, delta, A = E4^3 (j is A/delta) and, for each divisor that
    is not a monomial in atoms, its series with the leading zeros dropped.
    Every atom's series starts at its true valuation, and its powers are
    built once, incrementally, in `powers`.  A sum is put over the common
    part of its terms' exponents, so only the cofactors are multiplied in,
    and no division happens until the quotient of `fraction`."""

    def __init__(self, p):
        self.p = p
        self.powers = {}

    def power(self, atom, k):
        pw = self.powers[atom]
        while len(pw) < k:
            pw.append(pw[-1].mul(pw[0]))
        return pw[k - 1]

    def leaf(self, name):
        if name in ("j", "J"):
            self.leaf("E4")
            self.leaf("delta")
            self.powers.setdefault("A", [self.power(("E", 4), 3)])
            return _Term(0, 1, {"A": 1, "delta": -1})
        key, f = _leaf(name, self.p)
        self.powers.setdefault(key, [f.series])
        return _Term(f.weight, 1, {key: 1})

    def eval(self, node):
        if isinstance(node, ast.Expression):
            return self.eval(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return node.value
            raise ExpressionError("only integer constants are allowed")
        if isinstance(node, ast.Name):
            return self.leaf(node.id)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand)
            if isinstance(node.op, ast.UAdd):
                return v
            if isinstance(node.op, ast.USub):
                return _mul(v, -1)
            raise ExpressionError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            a = self.eval(node.left)
            b = self.eval(node.right)
            op = node.op
            if isinstance(op, (ast.Add, ast.Sub)):
                return self.add(a, b if isinstance(op, ast.Add) else _mul(b, -1))
            if isinstance(op, ast.Mult):
                return _mul(a, b)
            if isinstance(op, ast.Div):
                if isinstance(b, _Term):
                    return _mul(a, self.reciprocal(b, node.right))
                if b == 0:
                    raise ZeroDivisionError("division by zero in construction")
                if not isinstance(a, _Term):
                    return as_coeff(Fraction(a) / Fraction(b))
                return _mul(a, 1 / Fraction(b))
            if isinstance(op, ast.Pow):
                if not isinstance(b, int):
                    raise ExpressionError("exponents must be integer constants")
                if not isinstance(a, _Term):
                    # Fraction keeps negative powers of scalars exact
                    return as_coeff(Fraction(a) ** b)
                if b < 0:
                    a, b = self.reciprocal(a, node.left), -b
                if b == 0:
                    return _Term(0, 1, {})
                return _Term(a.weight * b, a.coef ** b, {x: e * b for x, e in a.exps.items()},
                             a.series.pow(b) if a.series is not None else None)
            raise ExpressionError("unsupported operator %s" % op.__class__.__name__)
        raise ExpressionError("unsupported syntax %s" % node.__class__.__name__)

    def reciprocal(self, t, node):
        """1/t; a divisor with a series part (the value of `node`) becomes an atom."""
        if t.coef == 0:
            raise ZeroLeadingCoefficient("division by a form that is zero through its window")
        exps = {x: -e for x, e in t.exps.items()}
        if t.series is not None:
            s = t.series
            v = s.valuation()
            if v is None:
                raise ZeroLeadingCoefficient("division by a form that is zero through its window")
            x = ("divisor", ast.dump(node))
            self.powers.setdefault(x, [LaurentSeries(v, s.coeffs[v - s.val:], s.prec)])
            exps[x] = exps.get(x, 0) - 1
        return _Term(-t.weight, as_coeff(1 / Fraction(t.coef)), exps)

    def add(self, a, b):
        if not isinstance(a, _Term):
            if not isinstance(b, _Term):
                return a + b
            a, b = b, a
        if not isinstance(b, _Term):
            if a.weight != 0:
                raise ExpressionError("cannot add a constant to a weight-%d form" % a.weight)
            b = _Term(0, b, {})
        if a.weight != b.weight:
            raise ExpressionError("weight mismatch: %d vs %d" % (a.weight, b.weight))
        common = {}
        for x in a.exps.keys() | b.exps.keys():
            e = min(a.exps.get(x, 0), b.exps.get(x, 0))
            if e:
                common[x] = e
        na = self.numerator(a, common)
        nb = self.numerator(b, common)
        if na is None and nb is None:
            return _Term(a.weight, a.coef + b.coef, common)
        # a bare constant is exact to any precision: match the other side
        if na is None:
            na = LaurentSeries.from_coeff_map({0: a.coef}, nb.prec)
        if nb is None:
            nb = LaurentSeries.from_coeff_map({0: b.coef}, na.prec)
        return _Term(a.weight, 1, common, na.add(nb))

    def numerator(self, t, common):
        """t divided by the monomial `common` as a series, or None when that
        is the constant t.coef."""
        factors = [self.power(x, t.exps.get(x, 0) - common.get(x, 0))
                   for x in t.exps.keys() | common.keys()
                   if t.exps.get(x, 0) > common.get(x, 0)]
        if t.series is not None:
            factors.append(t.series)
        if not factors:
            return None
        s = factors[0]
        for f in factors[1:]:
            s = s.mul(f)
        return s if t.coef == 1 else s.scale(t.coef)

    def fraction(self, t):
        """t as (numerator, denominator) series; the denominator is the
        product of the negative powers, None when there are none."""
        den = {x: -e for x, e in t.exps.items() if e < 0}
        d = self.numerator(_Term(0, 1, den), {})
        n = self.numerator(t, {x: e for x, e in t.exps.items() if e < 0})
        if n is None:
            n = LaurentSeries.from_coeff_map({0: t.coef}, d.prec if d else self.p)
        return n, d


def _mul(a, b):
    if not isinstance(a, _Term):
        if not isinstance(b, _Term):
            return a * b
        a, b = b, a
    if not isinstance(b, _Term):
        return _Term(a.weight, a.coef * b, a.exps, a.series)
    exps = dict(a.exps)
    for x, e in b.exps.items():
        e += exps.get(x, 0)
        if e:
            exps[x] = e
        else:
            del exps[x]
    if a.series is None or b.series is None:
        series = b.series if a.series is None else a.series
    else:
        series = a.series.mul(b.series)
    return _Term(a.weight + b.weight, a.coef * b.coef, exps, series)


def build_expression(expr, precision, seed=None):
    """Evaluate an arithmetic expression in E<k>, delta, j (with ^, **, and
    integer constants) to a ModularForm with window reaching precision.

    A bare name is read from the forms memo; anything else is compiled to
    one numerator over one denominator (see _Compiler) and divided once.
    A seed, the series of this expression to a lower precision, gives the
    quotient its first rows (see LaurentSeries.div)."""
    src = expr.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise ExpressionError("cannot parse %r: %s" % (expr, e))
    last = None
    for pad in (16, 48, 160, 512):
        try:
            if isinstance(tree.body, ast.Name):
                return _leaf(tree.body.id, precision + pad)[1].truncate(precision)
            compiler = _Compiler(precision + pad)
            v = compiler.eval(tree)
            if not isinstance(v, _Term):
                return ModularForm(0, LaurentSeries.from_coeff_map({0: v}, precision))
            n, d = compiler.fraction(v)
            return ModularForm(v.weight, n.truncate(precision) if d is None
                               else n.div(d, precision, seed))
        except InsufficientPrecision as e:
            last = e
    raise last


def build(name, precision, seed=None):
    """Named form as a ModularForm to the given precision; results are
    cached and truncated down on repeat requests.  A seed is passed to
    build_expression."""
    if name not in CONSTRUCTIONS:
        raise KeyError("unknown form %r (have %s)" % (name, sorted(CONSTRUCTIONS)))
    form = forms._cached(("named", name), precision,
                         lambda p: build_expression(CONSTRUCTIONS[name], p, seed))
    if form.weight != _EXPECTED_WEIGHT[name]:
        raise AssertionError("construction of %s produced weight %d" % (name, form.weight))
    return form


class IdentityReport(Immutable):
    __slots__ = ("id", "passed", "window", "mismatch")

    def __init__(self, ident, passed, window, mismatch=None):
        object.__setattr__(self, "id", ident)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "mismatch", mismatch)

    def __bool__(self):
        return self.passed

    def to_json_obj(self):
        return {"id": self.id, "pass": self.passed,
                "window": list(self.window) if self.window else None,
                "mismatch": self.mismatch}

    def __repr__(self):
        state = "pass" if self.passed else "FAIL %r" % (self.mismatch,)
        return "IdentityReport(%s: %s on %s)" % (self.id, state, self.window)


def _compare_series(ident, lhs, rhs):
    window, mismatch = compare(lhs, rhs)
    if window[0] == window[1]:
        raise InsufficientPrecision("identity %s has empty comparison window" % ident)
    return IdentityReport(ident, mismatch is None, window, mismatch)


def _compare_pinned(ident, series, lo, pinned):
    """series on [lo, lo + len(pinned)) against the pinned coefficients."""
    got = [series.coefficient(n) for n in range(lo, lo + len(pinned))]
    return _compare_series(ident, LaurentSeries(lo, got), LaurentSeries(lo, pinned))


def _id_bol_f6iinfty(precision):
    p = precision or 101
    e8d = build_expression("E8/delta", p)
    lhs = e8d.series.d_power(5)
    rhs = build("f6iinfty", p).series.scale(-1)
    return _compare_series("bol-f6iinfty", lhs, rhs)


def _id_infty_eigen(m, precision):
    p = precision or 120
    ident = "infty-eigen(%d)" % m
    f = build("f6iinfty", p)
    image = hecke.t_op(f.series, 6, m)
    h = image.sub(f.series.scale(forms.sigma(5, m)).truncate(image.prec))
    rep = whbasis.bol_image_membership(ModularForm(6, h), 3, True)
    if rep.ok:
        return IdentityReport(ident, True, rep.window)
    mim = rep.mismatch or {"obstruction": [_dec_str(c) for c in rep.obstruction.vector]}
    return IdentityReport(ident, False, rep.window, mim)


def _id_gdef(name, m, precision):
    p = precision or 60
    ident = "%s-def" % name
    pp = PrincipalPart({m: 1, 1: -forms.sigma(5, m)})
    sol = whbasis.solve_principal_part(-4, pp, True, p)
    if isinstance(sol, whbasis.ObstructionWitness):
        return IdentityReport(ident, False, None,
                              {"obstruction": [_dec_str(c) for c in sol.vector]})
    return _compare_series(ident, sol.series, build(name, p).series)


def _poly_in_j(poly, precision):
    jf = forms.j_function(precision).series
    # j^t as j^(t-1) * j, each power built once
    powers = [None, *itertools.accumulate([jf] * (len(poly) - 1), LaurentSeries.mul)]
    acc = None
    for t, c in enumerate(poly):
        if c == 0:
            continue
        term = LaurentSeries.from_coeff_map({0: c}, precision) if t == 0 else powers[t].scale(c)
        acc = term if acc is None else acc.add(term)
    return acc


def _id_gt(m, poly, precision):
    p = precision or 60
    ident = "gT%d" % m
    g = build("g", p)
    lhs = hecke.t_op(g.series, -10, m).scale(m ** 11)
    rhs = g.series.mul(_poly_in_j(poly, p))
    return _compare_series(ident, lhs, rhs)


def _g_hecke_series(precision):
    p = precision or 40
    G = build("G", p)
    image = hecke.t_op(G.series, 12, 2)
    return image.add(G.series.scale(24).truncate(image.prec))


def _id_g_hecke(precision):
    return _compare_pinned("G-hecke", _g_hecke_series(precision), 1,
                           [1, 16868409, 279687514914333])


def _id_jpoly_eval(precision):
    # both polynomials at j = -3375, then the q^2 and q^3 coefficients of
    # G | T_2 + 24 G, take the pinned values
    want = [16868409, 279687514914333]
    values = LaurentSeries(2, [linalg.poly_eval(GT2_POLY, -3375),
                               linalg.poly_eval(GT3_POLY, -3375)])
    rep = _compare_pinned("jpoly-eval", values, 2, want)
    return rep and _compare_pinned("jpoly-eval", _g_hecke_series(precision), 2, want)


def _id_f_over_delta(precision):
    p = precision or 60
    F = build("F7", p)
    lhs = F.series.div(forms.delta(p).series)
    rhs = forms.j_function(lhs.prec).series.add(
        LaurentSeries.from_coeff_map({0: 3375}, lhs.prec))
    return _compare_series("F-over-Delta", lhs, rhs)


def _id_psi_fourier(precision):
    # the q^n coefficient of beta*G + alpha*Delta as a linear form in
    # (alpha, beta) must be tau(n)*alpha + G_n*beta, with tau(n) and G_n
    # pinned for n = 1, 2, 3
    p = precision or 60
    ident = "psi-fourier-consistency"
    rep = _compare_pinned(ident, forms.delta(max(p, 5)).series, 1, [1, -24, 252])
    return rep and _compare_pinned(ident, build("G", max(p, 5)).series, 1, [0, 1, -4143])


_INFTY_RE = re.compile(r"^infty-eigen\((\d+)\)$")


# identity id -> check(precision), in the order `verify all` runs them
_IDENTITIES = {
    "bol-f6iinfty": _id_bol_f6iinfty,
    **{"infty-eigen(%d)" % m: functools.partial(_id_infty_eigen, m) for m in (2, 3, 5, 7)},
    "g5-def": functools.partial(_id_gdef, "g5", 5),
    "g7-def": functools.partial(_id_gdef, "g7", 7),
    "gT2": functools.partial(_id_gt, 2, GT2_POLY),
    "gT3": functools.partial(_id_gt, 3, GT3_POLY),
    "G-hecke": _id_g_hecke,
    "jpoly-eval": _id_jpoly_eval,
    "F-over-Delta": _id_f_over_delta,
    "psi-fourier-consistency": _id_psi_fourier,
}


def identity_ids():
    return list(_IDENTITIES)


def verify_identity(ident, precision=None):
    """Exact coefficient-wise verification of one named identity on the
    maximal provable window; returns an IdentityReport.  infty-eigen(m)
    is checked for any index m."""
    m = _INFTY_RE.match(ident)
    if m:
        return _id_infty_eigen(int(m.group(1)), precision)
    if ident not in _IDENTITIES:
        raise KeyError("unknown identity %r (have %s)" % (ident, identity_ids()))
    return _IDENTITIES[ident](precision)
