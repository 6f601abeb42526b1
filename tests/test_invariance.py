"""Generated invariance checks: closed forms depend on the mathematics, not the input."""

import json
from itertools import permutations
from unittest.mock import patch

from hypothesis import assume, given, settings, strategies as st

from porcfield import (
    IntPoly,
    bezout_cofactors,
    count_at,
    counting_eval,
    make_system,
    synthesize_counting_function,
    synthesize_gcd_function,
)
from porcfield.jsonio import counting_function_to_dict, gcd_function_to_dict

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


@st.composite
def systems_with_permutation(draw):
    # k unknowns, equations and inequations, and a permutation of the unknowns
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    rows = st.lists(st.tuples(*[exponents] * k), max_size=2)
    return k, n, draw(rows), draw(rows), draw(st.permutations(range(k)))


@st.composite
def systems_with_an_equation(draw):
    # k unknowns, at least one equation, inequations, and the index of one equation
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = st.tuples(*[exponents] * k)
    eqs = draw(st.lists(rows, min_size=1, max_size=2))
    return k, n, eqs, draw(st.lists(rows, max_size=3)), draw(st.integers(0, len(eqs) - 1))


@st.composite
def systems_with_two_equations(draw):
    # k unknowns, at least two equations, inequations, the indices of two
    # distinct equations and a multiplier
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = st.tuples(*[exponents] * k)
    eqs = draw(st.lists(rows, min_size=2, max_size=3))
    i, j = draw(st.permutations(range(len(eqs))))[:2]
    return k, n, eqs, draw(st.lists(rows, max_size=2)), i, j, draw(st.integers(-3, 3))


@st.composite
def systems_with_an_inequation(draw):
    # k unknowns, equations, at least one inequation, and the index of one inequation
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = st.tuples(*[exponents] * k)
    neqs = draw(st.lists(rows, min_size=1, max_size=3))
    return k, n, draw(st.lists(rows, max_size=2)), neqs, draw(st.integers(0, len(neqs) - 1))


@st.composite
def systems_with_an_exponent(draw):
    # k unknowns, equations and inequations with at least one relation, the
    # index of one relation among eqs + neqs and of one unknown, and a g(q)
    # of degree up to 5
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = st.tuples(*[exponents] * k)
    eqs = draw(st.lists(rows, max_size=2))
    neqs = draw(st.lists(rows, min_size=0 if eqs else 1, max_size=3))
    relation = draw(st.integers(0, len(eqs) + len(neqs) - 1))
    g = draw(st.lists(st.integers(-9, 9), max_size=6).map(IntPoly))
    return k, n, eqs, neqs, relation, draw(st.integers(0, k - 1)), g


def _output(system):
    cf = synthesize_counting_function(system)
    return cf.render(), json.dumps(counting_function_to_dict(cf))


def _gcd_output(fs):
    g = synthesize_gcd_function(fs)
    return g.render("x"), json.dumps(gcd_function_to_dict(g))


@st.composite
def family_and_members(draw):
    # a family plus the indices of two of its members, possibly the same one
    fs = draw(families)
    index = st.integers(0, len(fs) - 1)
    return fs, draw(index), draw(index)


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


@SETTINGS
@given(systems_with_permutation())
def test_counting_function_ignores_the_order_of_the_unknowns(drawn):
    k, n, eqs, neqs, order = drawn

    def permuted(rows):
        return [tuple(row[i] for i in order) for row in rows]

    forward = _output(make_system(k, n, eqs=eqs, neqs=neqs))
    assert _output(make_system(k, n, eqs=permuted(eqs), neqs=permuted(neqs))) == forward


# a repeated or negated equation row leaves the solution set, and so the
# counting function, as it was; both change the members of every family


@SETTINGS
@given(systems_with_an_equation())
def test_counting_function_ignores_a_duplicated_equation(drawn):
    k, n, eqs, neqs, i = drawn
    forward = _output(make_system(k, n, eqs=eqs, neqs=neqs))
    assert _output(make_system(k, n, eqs=eqs + [eqs[i]], neqs=neqs)) == forward


@SETTINGS
@given(systems_with_an_equation())
def test_counting_function_ignores_a_negated_equation(drawn):
    k, n, eqs, neqs, i = drawn
    negated = eqs[:i] + [tuple(-p for p in eqs[i])] + eqs[i + 1:]
    forward = _output(make_system(k, n, eqs=eqs, neqs=neqs))
    assert _output(make_system(k, n, eqs=negated, neqs=neqs)) == forward


@SETTINGS
@given(systems_with_two_equations())
def test_counting_function_ignores_a_row_operation_on_the_equations(drawn):
    # adding t times one equation to another is undone by subtracting it again,
    # so the solution set of every subset stays
    k, n, eqs, neqs, i, j, t = drawn
    combined = eqs[:i] + [tuple(a + b * t for a, b in zip(eqs[i], eqs[j]))] + eqs[i + 1:]
    forward = _output(make_system(k, n, eqs=eqs, neqs=neqs))
    assert _output(make_system(k, n, eqs=combined, neqs=neqs)) == forward


# an inequation x^a != 1 holds exactly when x^-a != 1, and every unknown has
# x^(q^n - 1) = 1, so an exponent is only defined modulo q^n - 1; neither
# change moves the solution set of any subset


@SETTINGS
@given(systems_with_an_inequation())
def test_counting_function_ignores_a_negated_inequation(drawn):
    k, n, eqs, neqs, i = drawn
    negated = neqs[:i] + [tuple(-p for p in neqs[i])] + neqs[i + 1:]
    forward = _output(make_system(k, n, eqs=eqs, neqs=neqs))
    assert _output(make_system(k, n, eqs=eqs, neqs=negated)) == forward


@SETTINGS
@given(systems_with_an_inequation())
def test_counting_function_ignores_a_duplicated_inequation(drawn):
    # the repeated row doubles the inclusion-exclusion subsets, so the terms
    # change; the values of the closed form and of count_at must not
    k, n, eqs, neqs, i = drawn

    def values(system):
        cf = synthesize_counting_function(system)
        return [(counting_eval(cf, q), count_at(system, q)) for q in range(2, 17)]

    forward = values(make_system(k, n, eqs=eqs, neqs=neqs))
    assert values(make_system(k, n, eqs=eqs, neqs=neqs + [neqs[i]])) == forward


@SETTINGS
@given(systems_with_an_exponent())
def test_counting_function_ignores_a_multiple_of_the_group_order(drawn):
    # the relation matrix holds every exponent reduced modulo q^n - 1, and
    # building it from the exponents as written differs from that by a
    # unimodular row operation by the membership rows: neither may change
    # the closed form or count_at
    k, n, eqs, neqs, r, j, g = drawn
    rows = eqs + neqs
    shifted = list(rows[r])
    shifted[j] += (IntPoly.monomial(1, n) - 1) * g
    rows = rows[:r] + [tuple(shifted)] + rows[r + 1:]
    moved = make_system(k, n, eqs=rows[: len(eqs)], neqs=rows[len(eqs):])

    def outputs(system):
        return _output(system), [count_at(system, q) for q in range(2, 10)]

    forward = outputs(make_system(k, n, eqs=eqs, neqs=neqs))
    assert outputs(moved) == forward
    with patch("porcfield.system._reduced", lambda p, n: p):
        assert outputs(moved) == forward


# each added or changed member generates the same ideal of values, so the
# gcd function and its closed form must not change


@SETTINGS
@given(family_and_members())
def test_gcd_function_ignores_a_duplicated_member(drawn):
    fs, i, _ = drawn
    assert _gcd_output(fs + [fs[i]]) == _gcd_output(fs)


@SETTINGS
@given(family_and_members())
def test_gcd_function_ignores_a_negated_member(drawn):
    fs, i, _ = drawn
    assert _gcd_output(fs[:i] + [-fs[i]] + fs[i + 1:]) == _gcd_output(fs)


@SETTINGS
@given(family_and_members(), st.integers(-6, 6), st.integers(-6, 6))
def test_gcd_function_ignores_an_added_combination(drawn, a, b):
    fs, i, j = drawn
    assert _gcd_output(fs + [fs[i] * a + fs[j] * b]) == _gcd_output(fs)


# two primes beyond the reach of rho within FACTOR_STEP_CAP
UNFACTORABLE = 10000000000037 * 20000000000021


@SETTINGS
@given(families)
def test_gcd_function_ignores_a_multiple_of_the_modulus(fs):
    # any integer of the family's ideal serves as the modulus; a multiple of
    # the Bezout modulus by two large primes must be shrunk before factoring
    f, _, m = bezout_cofactors(fs)
    if m == 1:
        return
    hs = [p.exact_div(f) for p in fs if p]
    assume(any(bezout_cofactors([hs[0], h])[0] == IntPoly([1]) for h in hs[1:]))
    assert synthesize_gcd_function(fs, fold=(f, m * UNFACTORABLE)) == synthesize_gcd_function(fs)


@SETTINGS
@given(systems())
def test_counting_functions_have_no_zero_shift(shape):
    # every family holds the membership minor (q^n - 1)^k, which is -1 or 1
    # at q = 0, so no solution class of any prime is 0
    k, rows = shape
    cf = synthesize_counting_function(make_system(k, 2, eqs=rows))
    assert all(n for _, g in cf.terms for _, n, _ in g.d.terms)
