"""Printed closed forms, read back as arithmetic, give the values they stand for."""

from math import gcd

from hypothesis import given, settings, strategies as st

from porcfield import (
    IntPoly,
    count_at,
    make_system,
    synthesize_counting_function,
    synthesize_gcd_function,
)

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def _read(text: str, var: str, x: int) -> int:
    # the printed ^ binds tighter than unary minus, as Python's ** does
    return eval(text.replace("^", "**"), {"__builtins__": {}, "gcd": gcd, var: x})


def _check_counting_function(system):
    # every subset's gcd f divides (q^n - 1)^k, so f(q) > 0 for q >= 2 and
    # each printed d*f is the term's d(q)*|f(q)|
    text = synthesize_counting_function(system).render()
    for q0 in range(2, 17):
        assert _read(text, "q", q0) == count_at(system, q0), (text, q0)


def test_printed_counting_function_is_the_count_on_the_corpus(corpus):
    for system in corpus.values():
        _check_counting_function(system)


# linear exponents a*q + b, as in the random systems of the benchmark
exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(IntPoly)


@st.composite
def systems(draw):
    k = draw(st.integers(1, 3))
    rows = st.tuples(*[exponents] * k)
    eqs = draw(st.lists(rows, max_size=1))
    neqs = draw(st.lists(rows, max_size=3))
    return make_system(k, draw(st.integers(1, 2)), eqs=eqs, neqs=neqs)


@SETTINGS
@given(systems())
def test_printed_counting_function_is_the_count(system):
    _check_counting_function(system)


polys = st.lists(st.integers(-12, 12), min_size=1, max_size=4).map(IntPoly)


@SETTINGS
@given(st.lists(polys, min_size=1, max_size=4).filter(any))
def test_printed_gcd_function_is_its_value(fs):
    # the print is d*f, which is the value d(x)*|f(x)| wherever f(x) >= 0
    g = synthesize_gcd_function(fs)
    text = g.render("x")
    for x in range(-30, 31):
        if g.f(x) >= 0:
            assert _read(text, "x", x) == g.value_at(x), (text, x)
