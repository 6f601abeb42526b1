"""Generated invariance checks: closed forms must not depend on input order."""

import json
from itertools import permutations

from hypothesis import given, settings, strategies as st

from porcfield import IntPoly, make_system, synthesize_counting_function, synthesize_gcd_function
from porcfield.jsonio import counting_function_to_dict

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)

polys = st.lists(st.integers(-12, 12), min_size=1, max_size=4).map(IntPoly)
families = st.lists(polys, min_size=2, max_size=4).filter(any)

# linear exponents a*q + b, as in the random systems of the benchmark
exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(IntPoly)


@st.composite
def systems(draw):
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[exponents] * k), min_size=2, max_size=3))
    return k, rows


def _output(system):
    cf = synthesize_counting_function(system)
    return cf.render(), json.dumps(counting_function_to_dict(cf))


@SETTINGS
@given(families)
def test_gcd_function_ignores_family_order(fs):
    expected = synthesize_gcd_function(fs)
    for permuted in permutations(fs):
        assert synthesize_gcd_function(list(permuted)) == expected


@SETTINGS
@given(systems())
def test_counting_function_ignores_equation_order(shape):
    k, rows = shape
    forward = _output(make_system(k, 2, eqs=rows))
    backward = _output(make_system(k, 2, eqs=rows[::-1]))
    assert backward == forward
