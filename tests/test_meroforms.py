"""Named weakly holomorphic and meromorphic forms, the whitelisted
construction-expression evaluator, and the exact identity verifiers."""

import ast
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from merohecke import forms, whbasis
from merohecke.forms import ModularForm
from merohecke.linalg import poly_eval
from merohecke.meroforms import (
    CONSTRUCTIONS,
    GT2_POLY,
    GT3_POLY,
    ExpressionError,
    VALIDITY_HEIGHT,
    IdentityReport,
    build,
    _compare_pinned,
    _compare_series,
    build_expression,
    identity_ids,
    verify_identity,
)
from merohecke.qseries import (LaurentSeries, InsufficientPrecision, QSeriesError, _dec_str,
                               as_coeff, compare)


# -- named expansions, zero tolerance -------------------------------------

PINNED = {
    "f6iinfty": {-1: 1, 0: 0, 1: -73764, 2: -86241280},
    "f6i": {1: 1, 2: 480, 3: 258804, 4: 138542080},
    "F7": {0: 1, 1: 4095, 2: 98280, 3: 17805060},
    "G": {2: 1, 3: -4143, 4: 16868385, 5: -68686682635},
    "g": {-2: 1, -1: 24, 0: -196560, 1: -47709536, 2: -3688365156},
    "g5": {-5: 1, -1: -3126, 0: 0, 1: 26994415788736, 2: 519615094283304960},
    "g7": {-7: 1, -1: -16808, 0: 0, 1: 10625045828793993,
           2: 1689691172521357344768},
}

WEIGHTS = {"f6iinfty": 6, "f6i": 6, "F7": 12, "G": 12,
           "g": -10, "g5": -4, "g7": -4}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_named_expansion(name):
    f = build(name, 8)
    assert f.weight == WEIGHTS[name]
    for n, want in sorted(PINNED[name].items()):
        assert f.coefficient(n) == want, (name, n)


def test_e8_over_delta_expansion():
    f = build_expression("E8/delta", 6)
    assert f.weight == -4
    assert [f.coefficient(n) for n in (-1, 0, 1, 2)] == [1, 504, 73764, 2695040]


def test_pole_supports():
    # g5 and g7 have poles only at the two stated orders
    g5 = build("g5", 4)
    assert all(g5.coefficient(-n) == 0 for n in (2, 3, 4))
    g7 = build("g7", 4)
    assert all(g7.coefficient(-n) == 0 for n in (2, 3, 4, 5, 6))


def test_validity_heights():
    assert VALIDITY_HEIGHT == {"f6i": 1.0, "g": 1.0, "G": pytest.approx(math.sqrt(7) / 2)}


def test_named_form_object():
    # build returns the ModularForm itself, of the construction's weight
    for name in CONSTRUCTIONS:
        f = build(name, 10)
        assert type(f) is ModularForm and f.weight == WEIGHTS[name], name
        assert f.truncate(5).series.prec == 5
        with pytest.raises(AttributeError):
            f.weight = 0


def test_build_unknown_name():
    with pytest.raises(KeyError):
        build("E4", 8)


def test_build_precision_growth():
    # rebuilding at a higher precision must extend, not change, the series
    lo = build("g", 6).series
    hi = build("g", 40).series
    assert compare(lo, hi)


# -- expression evaluator --------------------------------------------------

def test_expression_basic():
    f = build_expression("E4^3 - E6^2", 10)
    assert f.weight == 12
    d = build_expression("1728*delta", 10)
    assert compare(f.series, d.series)


def test_expression_caret_and_doublestar():
    a = build_expression("E4^2", 8)
    b = build_expression("E4**2", 8)
    assert a.weight == b.weight == 8
    assert compare(a.series, b.series)


def test_expression_negative_power():
    f = build_expression("delta^-1", 6)
    assert f.weight == -12
    assert f.series.val == -1
    assert f.coefficient(-1) == 1 and f.coefficient(0) == 24


def test_expression_negative_scalar_power_is_exact():
    e4 = build_expression("E4", 6).series
    for expr in ("E4*3^-1", "3^-1*E4", "-(3^-2)*(-3)*E4"):
        f = build_expression(expr, 6)
        assert f.weight == 4
        assert f.series == e4.scale(Fraction(1, 3))
    assert build_expression("2^-1", 4).coefficient(0) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        build_expression("E4*0^-1", 6)


def test_expression_scalar_result():
    f = build_expression("7 - 3", 5)
    assert f.weight == 0
    assert f.coefficient(0) == 4


def test_expression_constant_plus_weight_zero():
    f = build_expression("j + 3375", 5)
    assert f.coefficient(0) == 744 + 3375


def test_expression_division_by_constant():
    f = build_expression("E6/2", 6)
    assert f.coefficient(1) == Fraction(-504, 2)


def test_expression_unary_minus():
    f = build_expression("-E6", 6)
    assert f.coefficient(0) == -1 and f.coefficient(1) == 504


def test_expression_errors():
    with pytest.raises(ExpressionError):
        build_expression("E4 + x", 6)  # unknown leaf
    with pytest.raises(ExpressionError):
        build_expression("1.5*E4", 6)  # non-integer constant
    with pytest.raises(ExpressionError):
        build_expression("E4 + E6", 6)  # weight mismatch
    with pytest.raises(ExpressionError):
        build_expression("E4 + 1", 6)  # constant against nonzero weight
    with pytest.raises(ExpressionError):
        build_expression("E4^E6", 6)  # exponent must be a literal
    with pytest.raises(ExpressionError):
        build_expression("sin(E4)", 6)  # calls are not whitelisted
    with pytest.raises(ExpressionError):
        build_expression("E4 +", 6)  # parse error
    with pytest.raises(ZeroDivisionError):
        build_expression("E4/0", 6)


def test_expression_negative_power_weight():
    # a negative power of a form has the weight of the power
    for expr, weight in (("E4^-2", -8), ("delta^-3", -36), ("(E4*E6)^-2", -20),
                         ("j^-4", 0), ("(E4^3 + 3375*delta)^-2", -24)):
        assert build_expression(expr, 6).weight == weight, expr


def _two_sums(precision):
    # E4^3 + 3375*delta and E6^2 - 1728*delta, built from forms directly
    e4, e6 = forms.eisenstein(4, precision).series, forms.eisenstein(6, precision).series
    dl = forms.delta(precision).series
    return e4.pow(3).add(dl.scale(3375)), e6.pow(2).sub(dl.scale(1728)), dl


def test_expression_product_of_two_sums():
    # both factors keep a series part, so the compiler multiplies two series
    s1, s2, _ = _two_sums(40)
    f = build_expression("(E4^3 + 3375*delta)*(E6^2 - 1728*delta)", 40)
    assert f.weight == 24
    assert f.series == s1.mul(s2)


def test_expression_over_a_product_of_two_sums():
    s1, s2, dl = _two_sums(30)
    f = build_expression("delta^3/((E4^3 + 3375*delta)*(E6^2 - 1728*delta))", 30)
    assert f.weight == 12
    assert (f.series.val, f.series.prec) == (3, 30)
    assert f.series == dl.pow(3).div(s1.mul(s2), 30)


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_construction_divides_once(monkeypatch, name):
    # one numerator over one denominator: a single division, no inverse
    calls = []
    for meth in ("div", "invert"):
        orig = getattr(LaurentSeries, meth)
        monkeypatch.setattr(LaurentSeries, meth,
                            lambda self, *a, _m=meth, _f=orig: calls.append(_m) or _f(self, *a))
    forms.clear_cache()
    build(name, 40)
    assert calls == ([] if name == "F7" else ["div"])


# -- the compiled evaluator against a direct tree walk ----------------------

def _ref_leaf(name, precision):
    if name == "delta":
        return forms.delta(precision)
    if name == "j":
        return forms.j_function(precision)
    return forms.eisenstein(int(name[1:]), precision)


def _ref_add(a, b, sign):
    if isinstance(a, ModularForm) or isinstance(b, ModularForm):
        if not isinstance(a, ModularForm):
            a, b = b, a
            if sign < 0:
                a = ModularForm(a.weight, a.series.scale(-1))
                sign = 1
        if not isinstance(b, ModularForm):
            if a.weight != 0:
                raise ExpressionError("constant against a weight-%d form" % a.weight)
            b = ModularForm(0, LaurentSeries.from_coeff_map({0: b}, a.series.prec))
        if a.weight != b.weight:
            raise ExpressionError("weight mismatch")
        return ModularForm(a.weight, a.series.add(b.series if sign > 0 else b.series.scale(-1)))
    return a + b if sign > 0 else a - b


def _ref_node(node, precision):
    """Evaluate the tree directly on series, inverting every divisor where it
    occurs; the weight of a negative power is weight * exponent."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return _ref_leaf(node.id, precision)
    if isinstance(node, ast.UnaryOp):
        return -_ref_node(node.operand, precision)
    a = _ref_node(node.left, precision)
    b = _ref_node(node.right, precision)
    if isinstance(node.op, (ast.Add, ast.Sub)):
        return _ref_add(a, b, 1 if isinstance(node.op, ast.Add) else -1)
    if isinstance(node.op, ast.Mult):
        return a * b
    if isinstance(node.op, ast.Div):
        if isinstance(b, ModularForm):
            inv = b.series.invert()
            if isinstance(a, ModularForm):
                return ModularForm(a.weight - b.weight, a.series.mul(inv))
            return ModularForm(-b.weight, inv.scale(a))
        if b == 0:
            raise ZeroDivisionError
        if isinstance(a, ModularForm):
            return ModularForm(a.weight, a.series.scale(1 / Fraction(b)))
        return as_coeff(Fraction(a) / Fraction(b))
    if not isinstance(b, int):
        raise ExpressionError("exponents must be integer constants")
    if not isinstance(a, ModularForm):
        return as_coeff(Fraction(a) ** b)
    if b < 0:
        inv = a.series.invert()
        return ModularForm(a.weight * b, inv.pow(-b) if -b > 1 else inv)
    return a ** b


def _ref_build(expr, precision):
    tree = ast.parse(expr.replace("^", "**"), mode="eval").body
    last = None
    for pad in (16, 48, 160, 512):
        try:
            v = _ref_node(tree, precision + pad)
            if not isinstance(v, ModularForm):
                v = ModularForm(0, LaurentSeries.from_coeff_map({0: v}, precision))
            return ModularForm(v.weight, v.series.truncate(precision))
        except InsufficientPrecision as e:
            last = e
    raise last


_WEIGHT = {"E4": 4, "E6": 6, "E8": 8, "E10": 10, "delta": 12, "j": 0}


@st.composite
def _expressions(draw, depth=4):
    """(expression, weight or None for a scalar).  Sums usually get operands
    of equal weight, by multiplying the right one with (E6/E4)^k; sometimes
    not, so that weight errors occur too."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return str(draw(st.integers(-3, 5))), None
        name = draw(st.sampled_from(sorted(_WEIGHT)))
        return name, _WEIGHT[name]
    op = draw(st.sampled_from("+-*/^"))
    left, wl = draw(_expressions(depth - 1))
    if op == "^":
        e = draw(st.integers(-3, 3))
        return "(%s)^%d" % (left, e), None if wl is None else wl * e
    if op in "+-" and draw(st.booleans()):
        # X - X: a zero form, a divisor that must be refused
        right, wr = left, wl
    else:
        right, wr = draw(_expressions(depth - 1))
    if op in "+-" and draw(st.integers(0, 5)) and (wl or 0) != (wr or 0):
        right = "(%s)*(E6/E4)^%d" % (right, ((wl or 0) - (wr or 0)) // 2)
        wr = wl or 0
    if op in "+-":
        w = wl if wl is not None else wr
    elif op == "*":
        w = None if wl is None and wr is None else (wl or 0) + (wr or 0)
    else:
        w = None if wl is None and wr is None else (wl or 0) - (wr or 0)
    return "(%s)%s(%s)" % (left, op, right), w


def _outcome(fn, expr, precision):
    try:
        f = fn(expr, precision)
    except (ArithmeticError, ValueError, QSeriesError) as e:
        return type(e)
    return f.weight, f.series.val, f.series.prec, f.series.coeffs


@settings(max_examples=300, deadline=None)
@given(_expressions(), st.integers(1, 40))
def test_compiled_expression_matches_tree_walk(case, precision):
    expr, _ = case
    assert _outcome(build_expression, expr, precision) == _outcome(_ref_build, expr, precision)


# -- identity verification -------------------------------------------------

def test_identity_id_list():
    ids = identity_ids()
    assert ids == [
        "bol-f6iinfty", "infty-eigen(2)", "infty-eigen(3)", "infty-eigen(5)",
        "infty-eigen(7)", "g5-def", "g7-def", "gT2", "gT3", "G-hecke",
        "jpoly-eval", "F-over-Delta", "psi-fourier-consistency",
    ]
    assert len(ids) == 13


@pytest.mark.parametrize("ident", [
    "bol-f6iinfty", "infty-eigen(2)", "infty-eigen(3)",
    "g5-def", "g7-def", "gT2", "gT3",
    "G-hecke", "jpoly-eval", "F-over-Delta", "psi-fourier-consistency",
])
def test_verify_identity_passes(ident):
    rep = verify_identity(ident)
    assert rep.passed, rep
    assert bool(rep)
    assert rep.id == ident
    assert rep.mismatch is None
    lo, hi = rep.window
    assert hi > lo


def test_obstruction_mismatch_text_past_the_decimal_digit_limit(monkeypatch):
    # the mismatch lists the obstruction through qseries._dec_str, which
    # str() cannot do above 4300 digits
    big = 10 ** 5000
    monkeypatch.setattr(whbasis, "solve_principal_part",
                        lambda *a: whbasis.ObstructionWitness(-4, "M", [big, 0]))
    rep = verify_identity("g5-def")
    assert not rep.passed
    assert rep.mismatch == {"obstruction": [_dec_str(big), "0"]}


def test_verify_identity_larger_window():
    # the index-2 image halves the window: input precision 80 checks to q^40
    rep = verify_identity("gT2", 80)
    assert rep.passed
    assert rep.window[1] == 40


def test_verify_identity_infty_eigen_5():
    # the heavier index-5 case at reduced precision to stay fast here
    rep = verify_identity("infty-eigen(5)", 60)
    assert rep.passed, rep


def test_verify_identity_unknown():
    with pytest.raises(KeyError):
        verify_identity("infty-eigen-2")
    with pytest.raises(KeyError):
        verify_identity("gT5")


def test_identity_report_shape():
    rep = verify_identity("F-over-Delta")
    obj = rep.to_json_obj()
    assert obj == {"id": "F-over-Delta", "pass": True,
                   "window": list(rep.window), "mismatch": None}
    bad = IdentityReport("x", False, (0, 2), {"index": 1, "lhs": "1", "rhs": "2"})
    assert not bool(bad)
    assert bad.to_json_obj()["mismatch"]["index"] == 1
    assert "FAIL" in repr(bad)
    with pytest.raises(AttributeError):
        bad.passed = True


def test_compare_series_sees_pole_only_mismatch():
    # the two series differ only at q^-2, below the second one's window start
    rep = _compare_series("x", LaurentSeries(-2, [1, 0, 5]), LaurentSeries(-1, [0, 5]))
    assert not rep.passed
    assert rep.window == (-2, 1)
    assert rep.mismatch == {"index": -2, "lhs": "1", "rhs": "0"}


def test_compare_pinned_reports_window_and_mismatch():
    # only the slice [1, 4) is compared: q^0 and q^4 differ from anything pinned
    s = LaurentSeries(0, [7, 1, 2, 3, 9])
    ok = _compare_pinned("x", s, 1, [1, 2, 3])
    assert ok.passed and ok.window == (1, 4)
    rep = _compare_pinned("x", s, 1, [1, 2, 4])
    assert not rep.passed
    assert rep.window == (1, 4)
    assert rep.mismatch == {"index": 3, "lhs": "3", "rhs": "4"}


def test_gt_polynomials():
    assert GT2_POLY == [374784, -1512, 1]
    assert GT3_POLY == [52796307708, -842201064, 2784384, -3000, 1]
    # evaluated at j = -3375 they give the G|T_2 + 24 G coefficients
    assert poly_eval(GT2_POLY, -3375) == 16868409
    assert poly_eval(GT3_POLY, -3375) == 279687514914333
