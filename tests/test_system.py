"""Monomial systems: parsing, counting, synthesis, inclusion-exclusion."""

import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import porcfield.porc as porc
import porcfield.relmat as relmat
import porcfield.system as system_mod
from porcfield import (
    CountingFunction,
    DslSyntaxError,
    GcdPorcFunction,
    IntPoly,
    MonomialSystem,
    ScaleCapError,
    bezout_cofactors,
    brute_force_count,
    build_relation_matrix,
    count_at,
    counting_eval,
    evaluate_matrix,
    exponent_space_count,
    make_system,
    maximal_minors,
    parse_poly,
    parse_system,
    synthesize_counting_function,
    synthesize_gcd_function,
)
from porcfield.errors import ConsistencyError
from porcfield.jsonio import counting_function_from_dict, counting_function_to_dict
from porcfield.porc import PORC_ONE


class TestParse:
    def test_worked_example(self, quadratic_system):
        s = quadratic_system
        assert (s.k, s.n) == (2, 2)
        assert s.variables == ("x1", "x2")
        assert [r.exponents for r in s.equations] == [
            (parse_poly("q^2-1"), IntPoly()),
            (parse_poly("q+1"), IntPoly([-2])),
        ]
        assert [r.exponents for r in s.inequations] == [(parse_poly("q-1"), IntPoly())]
        assert s.relations == s.equations + s.inequations

    def test_empty_relation_list(self):
        s = parse_system("field GF(q^3); vars y")
        assert (s.k, s.n) == (1, 3)
        assert s.relations == ()
        assert s.variables == ("y",)

    def test_comments_and_whitespace(self):
        s = parse_system(
            """
            # the field
            field GF(q^2);   # inline too
            vars a,b;
            eq a^(  q + 1 )*b^( - 2*q ) = 1;
            """
        )
        assert s.relations[0].exponents == (parse_poly("q+1"), parse_poly("-2*q"))

    def test_repeated_variable_accumulates(self):
        s = parse_system("field GF(q^1); vars x; eq x^2*x^3 = 1")
        assert s.relations[0].exponents == (IntPoly([5]),)

    def test_malformed_exponent_reports_position(self):
        with pytest.raises(DslSyntaxError) as info:
            parse_system("field GF(q^2); vars x; eq x^(q+) = 1")
        assert info.value.line == 1
        assert info.value.col == 32

    def test_unknown_variable(self):
        with pytest.raises(DslSyntaxError, match="unknown variable 'y'"):
            parse_system("field GF(q^2); vars x; eq y^2 = 1")

    def test_degree_below_one(self):
        with pytest.raises(DslSyntaxError, match="at least 1"):
            parse_system("field GF(q^0); vars x")

    def test_missing_field_declaration(self):
        with pytest.raises(DslSyntaxError, match="expected 'field'"):
            parse_system("vars x; eq x^2 = 1")

    def test_non_integer_coefficient(self):
        with pytest.raises(DslSyntaxError, match="non-integer"):
            parse_system("field GF(q^2); vars x; eq x^(1.5*q) = 1")

    def test_superscript_digit_reports_position(self):
        with pytest.raises(DslSyntaxError, match="line 1, column 29: unexpected character '²'"):
            parse_system("field GF(q^2); vars x; eq x^² = 1")

    def test_reserved_and_duplicate_names(self):
        with pytest.raises(DslSyntaxError, match="reserved"):
            parse_system("field GF(q^2); vars q")
        with pytest.raises(DslSyntaxError, match="duplicate"):
            parse_system("field GF(q^2); vars x, x")

    def test_rhs_must_be_one(self):
        with pytest.raises(DslSyntaxError, match="right-hand side"):
            parse_system("field GF(q^2); vars x; eq x^2 = 2")

    def test_trailing_garbage(self):
        with pytest.raises(DslSyntaxError):
            parse_system("field GF(q^2); vars x; bogus")


class TestSystemType:
    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            MonomialSystem(k=0, n=1)
        with pytest.raises(ValueError):
            MonomialSystem(k=1, n=0)
        with pytest.raises(ValueError):
            make_system(2, 1, eqs=[(1,)])

    def test_non_int_exponent_rejected(self):
        # int() would have read 2.9 as 2 and counted x^2 = 1
        with pytest.raises(ValueError, match="expected an integer"):
            make_system(1, 1, eqs=[[2.9]])

    def test_default_variable_names(self):
        assert make_system(3, 1).variables == ("x1", "x2", "x3")


class TestCountAt:
    def test_worked_example_at_3(self, quadratic_system):
        assert count_at(quadratic_system, 3) == 12

    def test_worked_example_at_2(self, quadratic_system):
        assert count_at(quadratic_system, 2) == 2

    def test_empty_system_unique_solution(self):
        assert count_at(make_system(2, 1), 2) == 1

    def test_q_below_two_rejected(self, quadratic_system):
        with pytest.raises(ValueError):
            count_at(quadratic_system, 1)

    def test_inclusion_exclusion_cap(self, monkeypatch):
        # k = 1, e = 0, s = 21: sum_j C(21, j)*(j + 1) = 2^21 + 21*2^20 family members
        system = make_system(1, 1, neqs=[(1,)] * 21)
        with pytest.raises(ScaleCapError, match="blow-up: 24117248 family members"):
            count_at(system, 3)
        # s = 3: 2^3 + 3*2^2 = 20 family members, exactly at the budget
        monkeypatch.setattr(relmat, "WORK_BUDGET", 20)
        assert count_at(make_system(1, 1, neqs=[(1,)] * 3), 3) >= 0

    def test_huge_work_is_refused_in_few_digits(self):
        # W = (s/2 + 1)*2^s has over 4300 digits, more than int to str converts
        system = make_system(1, 1, neqs=[(1,)] * 16000)
        refused = r"blow-up: at least 2\^16012 family members \(k=1, e=0, s=16000\)"
        with pytest.raises(ScaleCapError, match=refused):
            count_at(system, 3)


@pytest.mark.parametrize("q", [float(2**61 - 1), 3.0, True, "3", Fraction(3)])
def test_non_int_q_rejected_at_every_entry_point(quadratic_system, q):
    # float(2^61 - 1) is 2^61, another q: a count there differs from the 19th digit
    system = quadratic_system
    cf = synthesize_counting_function(system)
    matrix = build_relation_matrix([r.exponents for r in system.relations], system.k, system.n)
    entry_points = [
        lambda: count_at(system, q),
        lambda: counting_eval(cf, q),
        lambda: cf(q),
        lambda: evaluate_matrix(matrix, q),
        lambda: exponent_space_count(system, q),
        lambda: brute_force_count(system, q),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="q is .*; expected an integer"):
            call()


class TestSynthesize:
    def test_worked_example_closed_form(self, quadratic_system):
        cf = synthesize_counting_function(quadratic_system)
        assert cf.render() == "gcd(q-1,2)*(q^2-1) - gcd(q-1,2)*(q-1)"
        signs = [sign for sign, _ in cf.terms]
        assert signs == [1, -1]  # subset bitmask order: {} then {neq}

    def test_empty_system_single_term(self):
        cf = synthesize_counting_function(make_system(1, 2))
        assert len(cf.terms) == 1
        sign, g = cf.terms[0]
        assert sign == 1 and g.f == parse_poly("q^2-1") and g.d == PORC_ONE
        assert cf.render() == "q^2-1"

    def test_equations_only_part(self, quadratic_equations_only):
        cf = synthesize_counting_function(quadratic_equations_only)
        assert cf.render() == "gcd(q-1,2)*(q^2-1)"

    def test_counting_eval_examples(self, quadratic_system):
        cf = synthesize_counting_function(quadratic_system)
        assert counting_eval(cf, 5) == 40  # 2*24 - 2*4
        assert counting_eval(cf, 4) == 12  # 1*15 - 1*3
        empty = synthesize_counting_function(make_system(1, 2))
        assert counting_eval(empty, 3) == 8

    def test_counting_eval_rejects_small_q(self, quadratic_system):
        cf = synthesize_counting_function(quadratic_system)
        with pytest.raises(ValueError):
            counting_eval(cf, 1)

    def test_negative_total_flagged(self):
        g = GcdPorcFunction(f=IntPoly([3]), d=PORC_ONE, m=1)
        bogus = CountingFunction(terms=((-1, g),))
        with pytest.raises(ConsistencyError, match="negative"):
            counting_eval(bogus, 5)


def test_synthesis_agreement_across_corpus(corpus):
    for name, system in corpus.items():
        cf = synthesize_counting_function(system)
        for q0 in range(2, 51):
            assert counting_eval(cf, q0) == count_at(system, q0), (name, q0)


def test_synthesized_coefficients_are_ints(corpus):
    # the closed forms are built in plain ints, and read back from JSON as ints;
    # the corpus synthesizes 10 gcd terms
    terms = 0
    for name, system in corpus.items():
        cf = synthesize_counting_function(system)
        decoded = counting_function_from_dict(counting_function_to_dict(cf))
        terms += sum(len(g.d.terms) for _, g in cf.terms)
        for _, g in cf.terms + decoded.terms:
            assert type(g.d.alpha) is int, name
            assert all(type(coeff) is int for coeff, _, _ in g.d.terms), name
    assert terms == 10


def test_count_at_matches_both_oracles_on_corpus(corpus):
    from porcfield import brute_force_count, exponent_space_count

    for name, system in corpus.items():
        for q0 in (2, 3, 4, 5, 7, 8, 9):
            if (q0**system.n - 1) ** system.k > 200_000:
                continue
            expected = count_at(system, q0)
            assert brute_force_count(system, q0) == expected, (name, q0)
            assert exponent_space_count(system, q0) == expected, (name, q0)


def test_inequation_duplicating_equation_kills_all_solutions():
    system = parse_system(
        "field GF(q^2); vars x, y; eq x^(q-1)*y^2 = 1; neq x^(q-1)*y^2 = 1"
    )
    for q0 in range(2, 9):
        assert count_at(system, q0) == 0


def test_redundant_equation_rows_do_not_change_counts():
    rng = random.Random(2024)
    base_rows = [
        (parse_poly("q^2-1"), IntPoly()),
        (parse_poly("q+1"), IntPoly([-2])),
    ]
    base = make_system(2, 2, eqs=base_rows)
    for _ in range(10):
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        extra = tuple(
            c1 * a + c2 * b for a, b in zip(base_rows[0], base_rows[1])
        )
        bigger = make_system(2, 2, eqs=base_rows + [extra])
        for q0 in (2, 3, 5, 7):
            assert count_at(bigger, q0) == count_at(base, q0)
    # integer combinations may also involve the implicit membership rows
    with_membership_shift = make_system(
        2, 2, eqs=base_rows + [(base_rows[1][0] + parse_poly("q^2-1"), base_rows[1][1])]
    )
    for q0 in (2, 3, 5, 7):
        assert count_at(with_membership_shift, q0) == count_at(base, q0)


def test_degenerate_exponent_rows():
    # x != 1 among the q-1 nonzero elements leaves q-2 choices
    pure_neq = make_system(1, 1, neqs=[(1,)])
    cf = synthesize_counting_function(pure_neq)
    for q0 in (2, 3, 5, 9):
        assert count_at(pure_neq, q0) == q0 - 2 == counting_eval(cf, q0)
    # an all-zero equation row constrains nothing
    assert count_at(make_system(2, 1, eqs=[(0, 0)]), 5) == 16
    # an all-zero inequation row is unsatisfiable
    assert count_at(make_system(1, 1, neqs=[(0,)]), 5) == 0


def test_term_order_follows_subset_bitmask():
    system = parse_system(
        "field GF(q^2); vars x; eq x^(q^2-1) = 1; neq x^(q-1) = 1; neq x^(q+1) = 1"
    )
    cf = synthesize_counting_function(system)
    assert [sign for sign, _ in cf.terms] == [1, -1, -1, 1]
    for q0 in range(2, 12):
        assert counting_eval(cf, q0) == count_at(system, q0)


# linear exponents a*q + b, as in the random systems of the benchmark
exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(IntPoly)


@st.composite
def systems(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rows = st.tuples(*[exponents] * k)
    eqs = draw(st.lists(rows, max_size=2))
    neqs = draw(st.lists(rows, max_size=4))
    return k, n, eqs, neqs


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(systems())
def test_lattice_terms_match_an_independent_modulus(drawn):
    # each subset's term, synthesized from the fold state it inherits along the
    # lattice, equals the synthesis from the Bezout gcd and modulus of its own minors
    k, n, eqs, neqs = drawn
    cf = synthesize_counting_function(make_system(k, n, eqs=eqs, neqs=neqs))
    for mask, (_, term) in enumerate(cf.terms):
        rows = eqs + [row for i, row in enumerate(neqs) if mask >> i & 1]
        minors = maximal_minors(build_relation_matrix(rows, k, n))
        f, _, m = bezout_cofactors(minors)
        assert term == synthesize_gcd_function(minors, fold=(f, m)), mask


def test_each_subset_folds_only_the_minors_of_its_new_row(monkeypatch):
    # the root folds all of its minors; every other subset folds only the
    # minors that use its top inequation's row, C(rows - 1, k - 1) of them
    received = []
    original = porc._gcd_fold

    def counted(fs, *state):
        fs = list(fs)
        received.append(len(fs))
        return original(fs, *state)

    for module in (porc, system_mod):
        monkeypatch.setattr(module, "_gcd_fold", counted)
    k, e, s = 3, 1, 3
    row = (IntPoly([1, 2]), IntPoly([-3, 1]), IntPoly([2]))
    system = make_system(k, 2, eqs=[row], neqs=[row[::-1], row[1:] + row[:1], row[2:] + row[:2]])
    synthesize_counting_function(system)
    expected = comb(e + k, k) + sum(
        comb(e + bin(mask).count("1") + k - 1, k - 1) for mask in range(1, 1 << s)
    )
    assert sum(received) == expected
    assert len(received) == 1 << s


def _calls(monkeypatch, module, name):
    # replace module.name by a wrapper that records each call's arguments
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


# e = 1 equation and s = 3 inequations on k = 2 unknowns: 8 subsets, and a
# full relation matrix of e + s + k = 6 rows
ROW = (IntPoly([1, 2]), IntPoly([-3, 1]))
THREE_NEQS = make_system(2, 2, eqs=[ROW], neqs=[ROW[::-1], (ROW[0], ROW[0]), (IntPoly([2]), ROW[1])])


def test_synthesis_expands_the_minors_once_per_system(monkeypatch):
    expansions = _calls(monkeypatch, relmat, "_leading_minors")
    cf = synthesize_counting_function(THREE_NEQS)
    assert len(cf.terms) == 8
    assert len(expansions) == 1
    rows, k = expansions[0]
    assert (len(rows), k) == (6, 2)


def test_count_at_builds_and_evaluates_one_matrix_per_call(monkeypatch):
    built = _calls(monkeypatch, system_mod, "build_relation_matrix")
    evaluated = _calls(monkeypatch, system_mod, "evaluate_matrix")
    snfs = _calls(monkeypatch, system_mod, "smith_normal_form")
    for calls, q0 in enumerate((2, 3, 5, 7), 1):
        count_at(THREE_NEQS, q0)
        assert (len(built), len(evaluated), len(snfs)) == (calls, calls, 8 * calls)


# THREE_NEQS asks for C(3, 2) + 3*C(4, 2) + 3*C(5, 2) + C(6, 2) family members
THREE_NEQS_WORK = 66
RUNS = {
    "synthesize": synthesize_counting_function,
    "count_at": lambda system: count_at(system, 3),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_work_budget_boundary_is_checked_before_any_matrix(run, monkeypatch):
    monkeypatch.setattr(relmat, "WORK_BUDGET", THREE_NEQS_WORK)
    run(THREE_NEQS)
    monkeypatch.setattr(relmat, "WORK_BUDGET", THREE_NEQS_WORK - 1)
    stages = ("build_relation_matrix", "maximal_minors", "_gcd_fold", "smith_normal_form")
    calls = {name: _calls(monkeypatch, system_mod, name) for name in stages}
    refused = r"blow-up: 66 family members \(k=2, e=1, s=3\) exceed WORK_BUDGET = 65$"
    with pytest.raises(ScaleCapError, match=refused):
        run(THREE_NEQS)
    assert calls == {name: [] for name in stages}


def _work(system):
    # the W that the synthesis's refusal at budget 0 reports
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relmat, "WORK_BUDGET", 0)
        with pytest.raises(ScaleCapError) as refusal:
            synthesize_counting_function(system)
    return int(re.search(r"blow-up: (\d+) family members", str(refusal.value))[1])


@st.composite
def budget_shapes(draw):
    k = draw(st.integers(1, 4))
    rows = st.tuples(*[exponents] * k)
    return k, draw(st.lists(rows, max_size=2)), draw(st.lists(rows, max_size=6))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(budget_shapes())
def test_work_is_the_sum_of_the_family_sizes(drawn):
    # the W that a refusal reports equals the members the synthesis hands on
    k, eqs, neqs = drawn
    system = make_system(k, 2, eqs=eqs, neqs=neqs)
    work = _work(system)
    with pytest.MonkeyPatch.context() as patch:
        families = _calls(patch, system_mod, "synthesize_gcd_function")
        synthesize_counting_function(system)
    assert len(families) == 1 << len(neqs)
    assert work == sum(len(args[0]) for args in families)


def test_work_is_at_least_the_full_matrix_minors():
    # the subset holding every inequation asks for C(e+s+k, k) members, all
    # the full matrix's minors, so maximal_minors never refuses a matrix
    # that the work check let through
    for k in range(1, 10):
        for e in range(7):
            for s in range(17):
                system = make_system(k, 1, eqs=[(1,) * k] * e, neqs=[(1,) * k] * s)
                assert _work(system) >= comb(e + s + k, k), (k, e, s)


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
def test_work_budget_refuses_where_the_full_matrix_would_fit(run, monkeypatch):
    # at a budget of C(6, 2) = 15 the full matrix's minors fit, but the 66
    # family members do not: the refusal comes before any matrix
    rows = [r.exponents for r in THREE_NEQS.relations]
    monkeypatch.setattr(relmat, "WORK_BUDGET", comb(6, 2))
    assert len(maximal_minors(build_relation_matrix(rows, 2, 2))) == 15
    stages = ("build_relation_matrix", "maximal_minors")
    calls = {name: _calls(monkeypatch, system_mod, name) for name in stages}
    refused = r"blow-up: 66 family members \(k=2, e=1, s=3\) exceed WORK_BUDGET = 15$"
    with pytest.raises(ScaleCapError, match=refused):
        run(THREE_NEQS)
    assert calls == {name: [] for name in stages}
