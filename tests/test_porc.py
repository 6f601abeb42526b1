"""The closed-form gcd engine: indicators, synthesis, tables; the profile oracle."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from porcfield import (
    GcdPorcFunction,
    IntPoly,
    PorcExpression,
    bezout_cofactors,
    parse_poly,
    porc_eval,
    porc_to_residue_table,
    synthesize_gcd_function,
)
import porcfield.porc as porc
from porcfield.cli import main
from porcfield.errors import ConsistencyError, ScaleCapError
from porcfield.porc import PORC_ONE, check_porc_invariants
from porcfield.system import CountingFunction

from literal_oracle import (
    ORACLE_MODULUS_CAP,
    build_indicator,
    literal_synthesis,
    porc_canonicalize,
    residue_gcd_profile,
)


def P(text):
    return parse_poly(text)


def expr(alpha, *terms):
    return PorcExpression(Fraction(alpha), tuple((Fraction(c), n, m) for c, n, m in terms))


def _totient(m):
    out = m
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            out -= out // p
            while mm % p == 0:
                mm //= p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


class TestIndicator:
    def test_modulus_12(self):
        e = build_indicator(12)
        assert e == expr(0, (1, 0, 2), (-1, 0, 4), (-1, 0, 6), (1, 0, 12))
        assert porc_eval(e, 12) == 4  # 12 * (1/2) * (2/3)

    def test_modulus_4(self):
        e = build_indicator(4)
        assert e == expr(0, (-1, 0, 2), (1, 0, 4))
        assert porc_eval(e, 4) == 2

    def test_modulus_2(self):
        e = build_indicator(2)
        assert e == expr(-1, (1, 0, 2))
        assert porc_eval(e, 2) == 1

    def test_small_modulus_rejected(self):
        for m in (1, 0, -4):
            with pytest.raises(ValueError):
                build_indicator(m)

    def test_eval_examples(self):
        twelve = build_indicator(12)
        assert porc_eval(twelve, 12) == 4  # 2 - 4 - 6 + 12
        assert porc_eval(twelve, 7) == 0  # 1 - 1 - 1 + 1
        assert porc_eval(build_indicator(4), 2) == 0  # -2 + 2

    def test_completeness_up_to_120(self):
        for m in range(2, 121):
            e = build_indicator(m)
            check_porc_invariants(e)
            for x in range(1, m):
                assert porc_eval(e, x) == 0, (m, x)
            assert porc_eval(e, m) == _totient(m)
            assert porc_eval(e, 0) == _totient(m)  # 0 and m are the same class


class TestResidueProfile:
    def test_parity_split(self):
        assert residue_gcd_profile([P("x^2+x"), P("x^2-x")], P("x"), 2) == [2, 1]

    def test_coprime_cofactors(self):
        assert residue_gcd_profile([P("x^2-1"), P("x^3-1")], P("x-1"), 1) == [1]

    def test_constant_family(self):
        assert residue_gcd_profile([IntPoly([2])], IntPoly([1]), 2) == [2, 2]

    def test_entries_divide_modulus_and_are_class_invariants(self):
        rng = random.Random(654)
        for _ in range(40):
            fs = [
                IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 3))
            ]
            if all(not f for f in fs):
                continue
            f, _, m = bezout_cofactors(fs)
            if m > 60:
                continue
            profile = residue_gcd_profile(fs, f, m)
            assert all(m % d == 0 for d in profile)
            # two further representatives of the same class give the same d
            for a in (1, m):
                for bump in (1, 3):
                    x = a + bump * m
                    while f(x) == 0:
                        x += m
                    g = 0
                    for p in fs:
                        g = gcd(g, p(x))
                    assert g // abs(f(x)) == profile[a - 1]


class TestSynthesize:
    def test_parity_family(self):
        g = synthesize_gcd_function([P("x^2+x"), P("x^2-x")])
        assert g.f == P("x")
        assert g.d == expr(0, (1, 1, 2))
        assert g.m == 2

    def test_coprime_short_circuit(self):
        g = synthesize_gcd_function([P("x^2-1"), P("x^3-1")])
        assert g.f == P("x-1")
        assert g.d == PORC_ONE
        assert g.m == 1

    def test_shared_linear_factor(self):
        g = synthesize_gcd_function([P("2*x"), P("x^2+x")])
        assert g.f == P("x")
        assert g.d == expr(0, (1, 1, 2))
        assert g.m == 2

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            synthesize_gcd_function([IntPoly()])

    def test_constant_family(self):
        g = synthesize_gcd_function([IntPoly([6]), IntPoly([10])])
        assert g.f == IntPoly([1])
        assert porc_eval(g.d, 123) == 2

    def test_value_at_matches_direct_gcd(self):
        g = synthesize_gcd_function([P("x^2+x"), P("x^2-x")])
        assert g.value_at(3) == 6
        assert g.value_at(4) == 4


def _check_soundness(fs, g):
    f = g.f
    for x in range(-60, 61):
        if f(x) == 0:
            continue
        true = 0
        for p in fs:
            if p:
                true = gcd(true, p(x))
        assert porc_eval(g.d, x) * abs(f(x)) == true, (x, [str(p) for p in fs])


def _check_against_oracle(fs, g):
    # same f and m as the residue-profile oracle, same values over two periods
    oracle = literal_synthesis(fs)
    check_porc_invariants(oracle.d)
    assert (g.f, g.m) == (oracle.f, oracle.m), [str(p) for p in fs]
    for x in range(2 * g.m):
        assert porc_eval(g.d, x) == porc_eval(oracle.d, x), (x, [str(p) for p in fs])


def test_factored_construction_agrees_with_literal():
    # the last two exercise singular multi-level lifts, the last one a zero shift
    cases = [
        [P("x^2+x"), P("x^2-x")],
        [P("2*x"), P("x^2+x")],
        [IntPoly([6]), IntPoly([10])],
        [P("x^2-1"), P("x^2+2*x+1")],
        [P("12*x"), P("x^3+5*x")],
        [P("x^2+7"), IntPoly([16])],
        [P("x^2"), P("x^2+4")],
    ]
    for fs in cases:
        g = synthesize_gcd_function(fs)
        check_porc_invariants(g.d)
        _check_soundness(fs, g)
        _check_against_oracle(fs, g)


@pytest.mark.parametrize("cap, value", [("TERM_BUDGET", 1)])
def test_factored_size_caps_raise_scale_cap_error(monkeypatch, cap, value):
    # x^2 and x^2+4 need a singular two-level lift at p = 2, two classes mod 4
    monkeypatch.setattr(porc, cap, value)
    with pytest.raises(ScaleCapError, match=cap):
        synthesize_gcd_function([P("x^2"), P("x^2+4")])


def test_singular_lift_at_a_large_prime_keeps_every_child():
    # x^2 and x^2 + p^2 vanish together on every multiple of p mod p^2: a
    # singular lift with p children, each of which keeps a term of d
    p = 3001
    fs = [P("x^2"), P(f"x^2+{p * p}")]
    g = synthesize_gcd_function(fs)
    assert g.m == p * p and len(g.d.terms) == p + 1
    for x in [0, p, 2 * p, p * p, 7 * p + 1, 5, 123456]:
        assert g.value_at(x) == gcd(x * x, x * x + p * p), x


def test_term_budget_bounds_the_terms_kept(monkeypatch):
    # the three classes at p = 2 give a constant and two terms per class,
    # seven in all, which merge to the three terms that d keeps
    monkeypatch.setattr(porc, "TERM_BUDGET", 3)
    g = synthesize_gcd_function([P("x^2"), P("x^2+4")])
    assert str(g.d) == "-gcd(q,2)+gcd(q,4)+gcd(q-2,4)"


@pytest.mark.parametrize("p", [20011, 199999, 200003])
def test_singular_lift_answers_up_to_term_budget_classes_and_refuses_past_it(p):
    # p classes mod p^2 keep p terms of d, plus the one mod p: a level past
    # TERM_BUDGET is refused before its classes are lifted further
    fs = [P("x^2"), P(f"x^2+{p * p}")]
    start = time.perf_counter()
    if p > porc.TERM_BUDGET:
        with pytest.raises(ScaleCapError) as refused:
            synthesize_gcd_function(fs)
        assert str(refused.value) == f"{p} solution classes mod {p}^2 exceed TERM_BUDGET = 200000"
    else:
        g = synthesize_gcd_function(fs)
        assert len(g.d.terms) == p + 1
        for x in [0, p, 3 * p + 1, p * p, 12345]:
            assert g.value_at(x) == gcd(x * x, x * x + p * p), x
    assert time.perf_counter() - start < 5


PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _power_family(a, p1, p2):
    return [P(f"x^{a}"), IntPoly([(p1 * p2) ** a])]


# 30 members equal mod 2^60: the lift must test one of them per class, not
# all 30 against each of the 200002 classes
SHIFTED_SQUARES = [P("x^2")] + [P(f"x^2+{k * 2**60}") for k in range(1, 30)]

PINNED_REFUSALS = {
    tuple(_power_family(4, 11, 13)): "3484320 factored synthesis terms exceed TERM_BUDGET = 200000",
    tuple(SHIFTED_SQUARES): "200002 solution classes mod 2^36 exceed TERM_BUDGET = 200000",
}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.builds(
        _power_family,
        st.integers(2, 5),
        st.sampled_from(PRIMES_BELOW_50),
        st.sampled_from(PRIMES_BELOW_50),
    )
)
@example(_power_family(4, 11, 13))
@example(SHIFTED_SQUARES)
def test_synthesis_answers_or_refuses_within_five_seconds(fs):
    # the CRT product of the two primes' local expressions of gcd(x^a, (p1*p2)^a)
    # can reach millions of terms (3484320 for 143^4), which TERM_BUDGET must
    # refuse before they are built
    start = time.perf_counter()
    try:
        synthesize_gcd_function(fs)
    except ScaleCapError as exc:
        if tuple(fs) in PINNED_REFUSALS:
            assert str(exc) == PINNED_REFUSALS[tuple(fs)]
    assert time.perf_counter() - start < 5


def test_gcd_that_does_not_divide_is_a_consistency_error(monkeypatch):
    # a folded gcd that fails to divide a member is an internal invariant failure
    monkeypatch.setattr(porc, "_gcd_fold", lambda fs: (P("x+2"), 2))
    with pytest.raises(ConsistencyError, match="does not divide"):
        synthesize_gcd_function([P("x^2+x"), P("x^2-x")])


def test_zero_gcd_mod_p_exits_3(monkeypatch, capsys):
    # the content is divided out, so some member is nonzero mod p; one where
    # every member vanishes mod p is an internal invariant failure
    monkeypatch.setattr(porc, "gf_from_coeffs", lambda coeffs, p: [])
    assert main(["gcd-porc", "--text", "x^2+x\nx^2-x"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency error: zero polynomial")


@st.composite
def content_one_families(draw):
    # 1-4 nonzero members sharing a factor, often with a repeated root, so
    # that several levels survive; the content of the family is 1
    shared = draw(st.sampled_from([P("1"), P("x"), P("x^2"), P("x-1"), P("x^2+x+1")]))
    bases = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(IntPoly).filter(bool)
    hs = [b * shared for b in draw(st.lists(bases, min_size=1, max_size=4))]
    assume(gcd(*(c for h in hs for c in h.coeffs)) == 1)
    return hs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(content_one_families(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3))
def test_solution_levels_are_the_common_roots_mod_each_prime_power(hs, p, e):
    # level j holds every c mod p^j with h_i(c) = 0 mod p^j for all i, up to
    # the first empty level
    expected = []
    for j in range(1, e + 1):
        level = [c for c in range(p**j) if all(h(c) % p**j == 0 for h in hs)]
        if not level:
            break
        expected.append(level)
    assert porc._solution_levels(hs, p, e) == expected


def test_bezout_modulus_beyond_the_step_cap_is_shrunk_first():
    # x and x + 2*P give the Bezout modulus 2*P, P = 10000000000037 * 20000000000021,
    # whose primes rho cannot find within FACTOR_STEP_CAP; x and x + 6 give 6, and
    # gcd(2*P, 6) = 2 is the modulus the synthesis factors
    big = 2 * 10000000000037 * 20000000000021
    fs = [P("x"), P("x") + big, P("x+6")]
    assert bezout_cofactors(fs)[2] == big
    g = synthesize_gcd_function(fs)
    assert (g.f, g.d, g.m) == (P("1"), expr(0, (1, 0, 2)), 2)
    _check_soundness(fs, g)


# two primes beyond the reach of rho within FACTOR_STEP_CAP
UNFACTORABLE = 10000000000037 * 20000000000021


@pytest.mark.parametrize(
    "fs", [[IntPoly([2]), IntPoly([2])], [P("x"), P("x"), P("x+6")], [P("x"), P("-x"), P("x+6")]]
)
def test_duplicated_members_still_shrink_an_unfactorable_modulus(fs):
    # a member repeated up to sign gives the shrink nothing new; a constant
    # anchor (2 over its own gcd 2 leaves 1) must still cut the modulus
    f, _, m = bezout_cofactors(fs)
    assert synthesize_gcd_function(fs, fold=(f, m * UNFACTORABLE)) == synthesize_gcd_function(fs)


def test_gcd_fold_gives_the_gcd_and_a_multiple_of_every_value_ratio():
    # gcd(f_1(x), ..., f_s(x)) / |f(x)| divides every integer m with m*f in the ideal
    rng = random.Random(4431)
    for _ in range(200):
        fs = [
            IntPoly([rng.randint(-15, 15) for _ in range(rng.randint(1, 5))])
            for _ in range(rng.randint(1, 4))
        ]
        if all(not p for p in fs):
            continue
        f, m = porc._gcd_fold(fs)
        assert f == bezout_cofactors(fs)[0] and m >= 1
        for x in range(-30, 31):
            if f(x):
                values = 0
                for p in fs:
                    values = gcd(values, p(x))
                assert m % (values // abs(f(x))) == 0, ([str(p) for p in fs], x)
    # resuming a fold state equals folding the whole family at once
    head, tail = [P("x^3-x"), P("2*x^2+2*x")], [P("x^2-1"), P("4*x+4")]
    resumed = porc._gcd_fold(tail, *porc._gcd_fold(head))
    assert resumed == porc._gcd_fold(head + tail) and resumed[0] == P("x+1")
    with pytest.raises(ValueError):
        porc._gcd_fold([IntPoly(), IntPoly()])


def test_synthesis_soundness_random_sweep():
    rng = random.Random(8208)
    done = compared = 0
    while done < 80:
        fs = [
            IntPoly([rng.randint(-15, 15) for _ in range(rng.randint(1, 6))])
            for _ in range(rng.randint(1, 4))
        ]
        if all(not f for f in fs):
            continue
        g = synthesize_gcd_function(fs)
        check_porc_invariants(g.d)
        for _, _, mi in g.d.terms:
            assert g.m % mi == 0
        _check_soundness(fs, g)
        if bezout_cofactors(fs)[2] <= ORACLE_MODULUS_CAP:
            _check_against_oracle(fs, g)
            compared += 1
        done += 1
    assert compared >= 40, "sweep must compare most families against the oracle"


class TestCanonicalize:
    def test_residue_reduction(self):
        e = porc_canonicalize(expr(0, (1, 5, 3)))
        assert e == expr(0, (1, 2, 3))

    def test_zero_shift_kept(self):
        assert porc_canonicalize(expr(0, (1, 0, 4))) == expr(0, (1, 0, 4))
        assert porc_canonicalize(expr(0, (1, 4, 4))) == expr(0, (1, 0, 4))

    def test_zero_coefficient_dropped(self):
        e = porc_canonicalize(expr(0, (0, 1, 2)))
        assert e == expr(0)

    def test_modulus_one_folds_into_alpha(self):
        e = porc_canonicalize(expr(3, (2, 0, 1)))
        assert e == expr(5)

    def test_like_terms_merge(self):
        e = porc_canonicalize(expr(0, (1, 1, 2), (1, 3, 2), ("1/2", 1, 2)))
        assert e == expr(0, ("5/2", 1, 2))

    def test_invariant_checker(self):
        check_porc_invariants(expr(0, (1, 0, 4), (1, 3, 4)))
        for bad in ((1, 4, 4), (1, -1, 4), (1, 1, 1)):
            with pytest.raises(ConsistencyError):
                check_porc_invariants(expr(0, bad))


class TestPorcEval:
    def test_examples(self):
        d = expr(0, (1, 1, 2))
        assert porc_eval(d, 7) == 2
        assert porc_eval(d, 4) == 1
        assert porc_eval(expr(344), -5) == 344

    def test_gcd_of_zero_is_modulus(self):
        assert porc_eval(expr(0, (1, 3, 12)), 3) == 12


class TestResidueTable:
    def test_parity_times_quadratic(self):
        g = GcdPorcFunction(f=P("q^2-q"), d=expr(0, (1, 1, 2)), m=2)
        modulus, table = porc_to_residue_table(CountingFunction(((1, g),)))
        assert modulus == 2
        assert table[0] == P("q^2-q")
        assert table[1] == P("2*q^2-2*q")

    def test_constant_function(self):
        g = GcdPorcFunction(f=IntPoly([5]), d=PORC_ONE, m=1)
        assert porc_to_residue_table(CountingFunction(((1, g),))) == (1, [IntPoly([5])])

    def test_row_cap_raises_before_any_row(self, monkeypatch):
        cf = CountingFunction(((1, GcdPorcFunction(f=P("q^2-q"), d=expr(0, (1, 1, 2)), m=2)),))
        monkeypatch.setattr(porc, "TABLE_ROW_CAP", 1)
        monkeypatch.setattr(porc, "porc_eval", lambda *a: pytest.fail("built a row"))
        with pytest.raises(ScaleCapError, match="table of 2 residue classes exceeds TABLE_ROW_CAP"):
            porc_to_residue_table(cf)
        monkeypatch.undo()
        monkeypatch.setattr(porc, "TABLE_ROW_CAP", 2)
        assert porc_to_residue_table(cf)[0] == 2

    def test_table_agrees_with_direct_evaluation(self):
        rng = random.Random(12)
        for _ in range(25):
            fs = [
                IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(1, 3))
            ]
            if all(not f for f in fs):
                continue
            g = synthesize_gcd_function(fs)
            modulus, table = porc_to_residue_table(CountingFunction(((1, g),)))
            for x in range(2, 2 + 10 * modulus):
                signed = porc_eval(g.d, x) * g.f(x)
                assert table[x % modulus](x) == signed
