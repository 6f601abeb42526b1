"""The closed-form gcd engine: indicators, synthesis, tables; the profile oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from porcfield import (
    GcdPorcFunction,
    IntPoly,
    PorcExpression,
    bezout_cofactors,
    build_indicator,
    indicator_eval,
    parse_poly,
    porc_canonicalize,
    porc_eval,
    porc_to_residue_table,
    synthesize_gcd_function,
)
import porcfield.porc as porc
from porcfield.errors import ConsistencyError, ScaleCapError
from porcfield.porc import PORC_ONE, check_porc_invariants

from literal_oracle import ORACLE_MODULUS_CAP, literal_synthesis, residue_gcd_profile


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
        s = build_indicator(12)
        assert s.primes == (2, 3)
        assert sorted(s.terms) == [(-1, 4), (-1, 6), (1, 2), (1, 12)]
        assert s.c == 4  # 12 * (1/2) * (2/3)

    def test_modulus_4(self):
        s = build_indicator(4)
        assert set(s.terms) == {(1, 4), (-1, 2)}
        assert s.c == 2

    def test_modulus_2(self):
        s = build_indicator(2)
        assert set(s.terms) == {(1, 2), (-1, 1)}
        assert s.c == 1

    def test_small_modulus_rejected(self):
        for m in (1, 0, -4):
            with pytest.raises(ValueError):
                build_indicator(m)

    def test_eval_examples(self):
        twelve = build_indicator(12)
        assert indicator_eval(twelve, 12) == 4  # 12 - 6 - 4 + 2
        assert indicator_eval(twelve, 7) == 0  # 1 - 1 - 1 + 1
        assert indicator_eval(build_indicator(4), 2) == 0  # 2 - 2

    def test_completeness_up_to_120(self):
        for m in range(2, 121):
            s = build_indicator(m)
            assert len(s.terms) == 2 ** len(s.primes)
            assert s.c == _totient(m)
            for x in range(1, m):
                assert indicator_eval(s, x) == 0, (m, x)
            assert indicator_eval(s, m) == s.c
            assert indicator_eval(s, 0) == s.c  # 0 and m are the same class


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
    # the last two exercise singular multi-level lifts and the zero-shift rewrite
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


@pytest.mark.parametrize(
    "cap, value", [("CHILD_ENUM_CAP", 1), ("CLASS_BUDGET", 0), ("TERM_BUDGET", 1)]
)
def test_factored_size_caps_raise_scale_cap_error(monkeypatch, cap, value):
    # x^2 and x^2+4 need a singular two-level lift at p = 2, which reaches every cap
    monkeypatch.setattr(porc, cap, value)
    with pytest.raises(ScaleCapError, match=cap):
        synthesize_gcd_function([P("x^2"), P("x^2+4")])


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

    def test_zero_shift_rewrite(self):
        e = porc_canonicalize(expr(0, (1, 0, 4)))
        assert e == expr(8, (-1, 1, 4), (-1, 2, 4), (-1, 3, 4))
        # the rewrite preserves the function
        for x in range(-10, 10):
            assert porc_eval(e, x) == gcd(x, 4)

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
        with pytest.raises(ConsistencyError):
            check_porc_invariants(expr(0, (1, 0, 4)))
        with pytest.raises(ConsistencyError):
            check_porc_invariants(expr(0, (1, 1, 1)))


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
        modulus, table = porc_to_residue_table(g)
        assert modulus == 2
        assert table[0] == P("q^2-q")
        assert table[1] == P("2*q^2-2*q")

    def test_constant_function(self):
        g = GcdPorcFunction(f=IntPoly([5]), d=PORC_ONE, m=1)
        assert porc_to_residue_table(g) == (1, [IntPoly([5])])

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
            modulus, table = porc_to_residue_table(g)
            for x in range(2, 2 + 10 * modulus):
                signed = porc_eval(g.d, x) * g.f(x)
                assert table[x % modulus](x) == signed
