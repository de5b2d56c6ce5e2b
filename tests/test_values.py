"""The value types: four compare and hash by their fields, the rest by
identity, and none can be changed or built with the wrong field count."""

from fractions import Fraction

import pytest

from merohecke.forms import FormBasis, ModularForm
from merohecke.meroforms import IdentityReport
from merohecke.numeval import EvalResult, HPoint, PoincareSeed
from merohecke.qseries import Immutable, LaurentSeries
from merohecke.quotient import QuotientClass
from merohecke.whbasis import BolReport, ObstructionWitness, PrincipalPart

_SERIES = LaurentSeries(-1, [1, 0, Fraction(1, 2)])

# (type, constructor arguments, the tuple its hash has always been)
VALUES = [
    pytest.param(LaurentSeries, (-1, ["1", 0, "1/2"], 2),
                 lambda s: (s.val, s.prec, s.coeffs), id="LaurentSeries"),
    pytest.param(ModularForm, (12, _SERIES),
                 lambda f: (f.weight, f.series), id="ModularForm"),
    pytest.param(QuotientClass, (12, "modS", [1, Fraction(2, 3)]),
                 lambda c: (c.weight2k, c.kind, c.coords), id="QuotientClass"),
    pytest.param(PrincipalPart, ({2: 3, 1: "1/2", 4: 0}, 5),
                 lambda p: (tuple(sorted(p.terms.items())), p.constant), id="PrincipalPart"),
]

IDENTITIES = [
    pytest.param(FormBasis, (12, "M", [ModularForm(12, _SERIES)], [1]), id="FormBasis"),
    pytest.param(ObstructionWitness, (12, "S", [1, 0]), id="ObstructionWitness"),
    pytest.param(IdentityReport, ("gT2", True, (0, 10)), id="IdentityReport"),
    pytest.param(BolReport, (True,), id="BolReport"),
    pytest.param(EvalResult, (1.5, 0.0), id="EvalResult"),
    pytest.param(HPoint, ("0.1", "1.2"), id="HPoint"),
    pytest.param(PoincareSeed, (2, 0, HPoint(0, 1)), id="PoincareSeed"),
]


@pytest.mark.parametrize("cls, args, key", VALUES)
def test_values_compare_and_hash_by_their_fields(cls, args, key):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(key(a))
    assert {a: "x"}[b] == "x"
    assert a.__eq__(key(a)) is NotImplemented and a != key(a)


def test_values_with_other_fields_differ():
    assert LaurentSeries(0, [1, 2]) != LaurentSeries(0, [1, 3])
    assert LaurentSeries(0, [1, 2]) != LaurentSeries(0, [1, 2, 0])
    assert ModularForm(12, _SERIES) != ModularForm(14, _SERIES)
    assert QuotientClass(12, "modS", [1]) != QuotientClass(12, "modM", [1])
    assert PrincipalPart({1: 1}) != PrincipalPart({1: 1}, 1)


@pytest.mark.parametrize("cls, args", IDENTITIES)
def test_other_value_types_compare_by_identity(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == a and a != b and hash(a) != hash(b)


@pytest.mark.parametrize("cls, args", [pytest.param(*p.values[:2], id=p.id) for p in VALUES]
                         + IDENTITIES)
def test_fields_are_set_once_and_counted(cls, args):
    v = cls(*args)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
    with pytest.raises(AttributeError):
        v.extra = None
    n = len(cls.__slots__)
    with pytest.raises(TypeError):
        cls(*args, *[None] * (n + 1 - len(args)))
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError, match="takes %d fields, got %d" % (n, count)):
            Immutable.__init__(object.__new__(cls), *range(count))


def test_modular_form_takes_its_fields_in_slot_order():
    f = ModularForm(12, _SERIES)
    assert f.weight == 12 and f.series is _SERIES
    with pytest.raises(TypeError):
        ModularForm(12)
