"""Value semantics of the five immutable records of the pipeline."""

import pickle
from fractions import Fraction

import pytest

from porcfield import (
    CountingFunction,
    GcdPorcFunction,
    IntPoly,
    MonomialRelation,
    MonomialSystem,
    PorcExpression,
    make_system,
)

X = IntPoly((0, 1))
ONE = IntPoly((1,))
D = PorcExpression(Fraction(1), ((Fraction(-1, 2), 1, 2),))
G = GcdPorcFunction(X, D, 2)
REL = MonomialRelation((X, ONE))
FIELDS = {
    PorcExpression: ("alpha", "terms"),
    GcdPorcFunction: ("f", "d", "m"),
    MonomialRelation: ("exponents",),
    MonomialSystem: ("k", "n", "equations", "inequations", "variables"),
    CountingFunction: ("terms",),
}


def _records():
    """Equal but distinct instances of each record, built positionally and by keyword."""
    return [
        (PorcExpression(Fraction(1), ((Fraction(-1, 2), 1, 2),)),
         PorcExpression(alpha=Fraction(1), terms=((Fraction(-1, 2), 1, 2),))),
        (GcdPorcFunction(X, D, 2), GcdPorcFunction(f=X, d=D, m=2)),
        (MonomialRelation((X, ONE)), MonomialRelation(exponents=(X, ONE))),
        (MonomialSystem(2, 1, (REL,)), MonomialSystem(k=2, n=1, equations=(REL,))),
        (CountingFunction(((1, G),)), CountingFunction(terms=((1, G),))),
    ]


@pytest.mark.parametrize("a, b", _records(), ids=lambda r: type(r).__name__)
def test_equal_fields_compare_and_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_never_compare_equal():
    firsts = [a for a, _ in _records()]
    for i, a in enumerate(firsts):
        for j, b in enumerate(firsts):
            assert (a == b) == (i == j)
    # a record is not the tuple of its fields
    assert PorcExpression(Fraction(1)) != (Fraction(1), ())
    assert CountingFunction(()) != ((),)


def test_different_fields_compare_unequal():
    assert PorcExpression(Fraction(1)) != PorcExpression(Fraction(2))
    assert GcdPorcFunction(X, D, 2) != GcdPorcFunction(X, D, 4)
    assert MonomialRelation((X, ONE)) != MonomialRelation((ONE, X))
    # one relation as an equation and as an inequation
    assert MonomialSystem(2, 1, (REL,)) != MonomialSystem(2, 1, (), (REL,))


@pytest.mark.parametrize("a, _", _records(), ids=lambda r: type(r).__name__)
def test_repr_lists_every_field_in_order(a, _):
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in FIELDS[type(a)])
    assert repr(a) == f"{type(a).__name__}({fields})"


def test_repr_names_the_class_and_every_field():
    assert repr(PorcExpression(Fraction(3))) == "PorcExpression(alpha=Fraction(3, 1), terms=())"
    assert repr(MonomialSystem(1, 2)) == (
        "MonomialSystem(k=1, n=2, equations=(), inequations=(), variables=('x1',))"
    )
    assert repr(CountingFunction(())) == "CountingFunction(terms=())"


@pytest.mark.parametrize("a, _", _records(), ids=lambda r: type(r).__name__)
def test_fields_refuse_assignment(a, _):
    for name in FIELDS[type(a)]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_defaults_hold():
    assert PorcExpression(Fraction(5)).terms == ()
    system = MonomialSystem(k=2, n=3)
    assert system.equations == system.inequations == system.relations == ()
    assert system.variables == ("x1", "x2")
    assert MonomialSystem(1, 1, (), (), ("y",)).variables == ("y",)


def test_missing_and_unknown_fields_are_type_errors():
    with pytest.raises(TypeError):
        PorcExpression()
    with pytest.raises(TypeError):
        GcdPorcFunction(X, D)
    with pytest.raises(TypeError):
        MonomialRelation((X,), "eq")
    with pytest.raises(TypeError):
        MonomialRelation((X,), kind="eq")
    with pytest.raises(TypeError):
        MonomialRelation((X,), exponents=(X,))
    with pytest.raises(TypeError):
        MonomialSystem(k=1, n=1, relations=())


def test_monomial_system_checks_its_shape():
    with pytest.raises(ValueError, match="variable name count differs from k"):
        MonomialSystem(k=2, n=1, variables=("x",))
    for relations in ({"equations": (REL,)}, {"inequations": (REL,)}):
        with pytest.raises(ValueError, match="wrong length"):
            MonomialSystem(k=1, n=1, **relations)
    with pytest.raises(ValueError, match="need k >= 1"):
        MonomialSystem(k=0, n=1)


@pytest.mark.parametrize(
    "k, n, message",
    [
        (True, 1, "k is True; expected an integer"),
        (2.0, 1, "k is 2.0; expected an integer"),
        (1, True, "n is True; expected an integer"),
        (1, 2.0, "n is 2.0; expected an integer"),
    ],
)
def test_monomial_system_refuses_a_k_or_n_that_is_not_an_int(k, n, message):
    with pytest.raises(ValueError) as info:
        MonomialSystem(k=k, n=n)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        make_system(k, n)
    assert str(info.value) == message
