"""Finite-field construction and the two brute-force counting oracles."""

import os
import random
import subprocess
import sys
from itertools import product
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import porcfield.ffield as ffield
from porcfield import (
    ConsistencyError,
    IntPoly,
    ScaleCapError,
    brute_force_count,
    count_at,
    counting_eval,
    exponent_space_count,
    make_field,
    make_system,
    split_prime_power,
    synthesize_counting_function,
)
from porcfield._gfpoly import gf_divmod, gf_mul, gf_pow_mod
from porcfield.cli import main


def _nonzero(field):
    return [el for el in field.elements() if el != field.zero]


def reference_count(system, q0):
    """Literal tuple-product count: multiply powered entries with field.mul.

    The definition that ``brute_force_count`` shortcuts with discrete logs;
    kept for small fields only.
    """
    p, e = split_prime_power(q0)
    field = make_field(p, e * system.n)
    elements = _nonzero(field)
    checks = [
        (want_eq, [[field.pow(el, poly(q0)) for el in elements] for poly in rel.exponents])
        for want_eq, rels in ((True, system.equations), (False, system.inequations))
        for rel in rels
    ]
    count = 0
    for combo in product(range(len(elements)), repeat=system.k):
        ok = True
        for want_eq, tables in checks:
            acc = field.one
            for var, idx in enumerate(combo):
                acc = field.mul(acc, tables[var][idx])
            if (acc == field.one) != want_eq:
                ok = False
                break
        if ok:
            count += 1
    return count


def small_random_systems():
    rng = random.Random(3333)
    for _ in range(25):
        k = rng.randint(1, 2)
        n = rng.randint(1, 2)
        eqs, neqs = [], []
        for _ in range(rng.randint(0, 3)):
            row = tuple(rng.randint(-4, 4) for _ in range(k))
            (eqs if rng.random() < 0.7 else neqs).append(row)
        yield make_system(k, n, eqs=eqs, neqs=neqs)


class TestMakeField:
    def test_unique_quadratic_over_gf2(self):
        assert make_field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1

    def test_first_irreducible_over_gf3(self):
        assert make_field(3, 2).modulus == (1, 0, 1)  # t^2 + 1

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            make_field(4, 1)

    def test_scale_cap(self):
        with pytest.raises(ScaleCapError) as info:
            make_field(2, 21)
        assert str(info.value) == "field order 2097152 exceeds MAX_TUPLES = 1000000"

    def test_no_irreducible_modulus_is_consistency_error(self, monkeypatch):
        monkeypatch.setattr(ffield, "gf_is_irreducible", lambda a, p: False)
        with pytest.raises(ConsistencyError, match="no irreducible polynomial"):
            make_field(2, 2)

    def test_prime_field(self):
        f = make_field(7, 1)
        assert f.mul((3,), (5,)) == (1,)
        assert f.pow((3,), -1) == (5,)

    @pytest.mark.parametrize(
        "p,n,modulus,generator",
        [
            (2, 2, (1, 1, 1), (0, 1)),
            (3, 2, (1, 0, 1), (1, 1)),
            (2, 4, (1, 1, 0, 0, 1), (0, 0, 1, 0)),
            (5, 2, (2, 0, 1), (1, 1)),
            (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1, 1)),
        ],
    )
    def test_modulus_and_generator(self, p, n, modulus, generator):
        # the first generator in element order; the power cycles index by its logs
        field = make_field(p, n)
        assert field.modulus == modulus
        g, logs = ffield._discrete_logs(field)
        assert g == generator
        assert logs[ffield._position(p, generator)] == 1


class TestFieldArithmetic:
    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
    def test_frobenius_is_additive(self, p, n):
        field = make_field(p, n)
        rng = random.Random(p * 100 + n)
        elements = _nonzero(field)
        for _ in range(25):
            a = rng.choice(elements)
            b = rng.choice(elements)
            s = field.add(a, b)
            lhs = field.pow(s, p) if s != field.zero else field.zero
            rhs = field.add(field.pow(a, p), field.pow(b, p))
            assert lhs == rhs

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (2, 6)])
    def test_every_nonzero_element_has_full_order_dividing_group(self, p, n):
        field = make_field(p, n)
        for el in _nonzero(field):
            assert field.pow(el, field.order - 1) == field.one

    def test_inverse(self):
        field = make_field(3, 2)
        for el in _nonzero(field):
            assert field.mul(el, field.pow(el, -1)) == field.one

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.data())
    def test_mul_and_pow_match_polynomial_division(self, data):
        # the folded product against the remainder of the long division
        p, n = data.draw(st.sampled_from([(2, 1), (2, 8), (3, 5), (5, 2), (7, 3), (997, 2)]))
        field = make_field(p, n)
        element = st.tuples(*[st.integers(0, p - 1)] * n)
        a, b = data.draw(element), data.draw(element)
        mod = list(field.modulus)

        def pad(coeffs):
            return tuple(coeffs) + (0,) * (n - len(coeffs))

        assert field.mul(a, b) == pad(gf_divmod(gf_mul(list(a), list(b), p), mod, p)[1])
        if a != field.zero:
            e = data.draw(st.integers(-(field.order**2), field.order**2))
            assert field.pow(a, e) == pad(gf_pow_mod(list(a), e % (field.order - 1), mod, p))

    def test_negative_exponents_reduce_into_group(self):
        field = make_field(5, 2)
        for el in _nonzero(field)[:6]:
            assert field.pow(el, -1) == field.pow(el, field.order - 2)
            assert field.pow(el, -(field.order - 1) * 3) == field.one


class TestSplitPrimePower:
    def test_accepts_prime_powers(self):
        assert split_prime_power(9) == (3, 2)
        assert split_prime_power(8) == (2, 3)
        assert split_prime_power(7) == (7, 1)

    def test_large_prime_powers(self):
        # trial division up to sqrt(q) would take about 1.5e9 steps on the first
        assert split_prime_power(2**61 - 1) == (2**61 - 1, 1)
        assert split_prime_power(3**40) == (3, 40)

    def test_rejects_others(self):
        for q in (1, 6, 12, 100, (10**9 + 7) * 998244353):
            with pytest.raises(ValueError):
                split_prime_power(q)


class TestPowerTable:
    def test_walk_that_leaves_the_group_is_consistency_error(self, monkeypatch):
        field = make_field(3, 2)
        g, logs = ffield._discrete_logs(field)
        # a product that comes out as zero: the walk's second element has no log
        monkeypatch.setattr(ffield.FieldContext, "mul", lambda self, a, b: self.zero)
        with pytest.raises(ConsistencyError, match="has no log"):
            ffield._power_cycle(field, logs, g, 2)

    def test_walk_that_never_closes_stops_within_the_group_order(self, monkeypatch):
        field = make_field(5, 2)
        g, logs = ffield._discrete_logs(field)
        true_mul = ffield.FieldContext.mul
        calls = []

        # where the product should be one it comes out as b, so the walk of
        # h = g^3 falls back onto h and cycles without returning to one
        def never_one(self, a, b):
            calls.append(1)
            value = true_mul(self, a, b)
            return b if value == self.one else value

        monkeypatch.setattr(ffield.FieldContext, "mul", never_one)
        with pytest.raises(ConsistencyError, match="did not close within 24 steps"):
            ffield._power_cycle(field, logs, g, 3)
        # the walk's 24 products and at most two per bit of 3 for h
        assert len(calls) <= 24 + 4

    def test_every_cycle_follows_the_exponent_rule(self):
        # in each field of order up to 256 the literal walk of h = g^beta is
        # N / gcd(N, beta) long, and its entry i is the log i * beta mod N
        fields = [
            (p, n)
            for p in range(2, 257)
            if all(p % d for d in range(2, p))
            for n in range(1, 9)
            if p**n <= 256
        ]
        for p, n in fields:
            field = make_field(p, n)
            group = field.order - 1
            g, logs = ffield._discrete_logs(field)
            for beta in range(group):
                cycle = ffield._power_cycle(field, logs, g, beta)
                assert len(cycle) == group // gcd(group, beta), (p, n, beta)
                assert cycle == [i * beta % group for i in range(len(cycle))], (p, n, beta)


class TestBruteForce:
    def test_worked_example_prime_q(self, quadratic_system):
        assert brute_force_count(quadratic_system, 3) == 12

    def test_worked_example_prime_power_q(self, quadratic_system):
        # q = 4 handled as p = 2, e = 2 inside GF(2^4)
        assert brute_force_count(quadratic_system, 4) == 12

    def test_empty_system(self):
        assert brute_force_count(make_system(1, 1), 2) == 1

    def test_non_prime_power_rejected(self, quadratic_system):
        with pytest.raises(ValueError):
            brute_force_count(quadratic_system, 6)

    def test_tuple_cap(self, quadratic_system, monkeypatch):
        monkeypatch.setattr(ffield, "MAX_TUPLES", 100)
        with pytest.raises(ScaleCapError):
            brute_force_count(quadratic_system, 9)

    def test_tuple_cap_boundary(self, quadratic_system, monkeypatch):
        # the cap admits exactly the 8^2 tuples of GF(9)* x GF(9)* at q = 3, n = 2
        monkeypatch.setattr(ffield, "MAX_TUPLES", 64)
        assert brute_force_count(quadratic_system, 3) == 12
        monkeypatch.setattr(ffield, "MAX_TUPLES", 63)
        with pytest.raises(ScaleCapError) as info:
            brute_force_count(quadratic_system, 3)
        assert str(info.value) == "8^2 field tuples exceed MAX_TUPLES = 63"

    def test_tuple_cap_before_the_field_is_built(self, quadratic_system, monkeypatch):
        def unbuildable(p, n):
            raise RuntimeError("make_field must not run past the tuple cap")

        monkeypatch.setattr(ffield, "make_field", unbuildable)
        # the cap needs no factorization, so q is not factored either
        monkeypatch.setattr(ffield, "split_prime_power", lambda q: pytest.fail("factored q"))
        monkeypatch.setattr(ffield, "MAX_TUPLES", 100)
        with pytest.raises(ScaleCapError, match="80\\^2 field tuples exceed MAX_TUPLES = 100"):
            brute_force_count(quadratic_system, 9)

    def test_system_without_relations_builds_no_field(self, corpus, monkeypatch):
        monkeypatch.setattr(ffield, "_discrete_logs", lambda f: pytest.fail("built logs"))
        monkeypatch.setattr(ffield, "make_field", lambda p, n: pytest.fail("built a field"))
        assert brute_force_count(corpus["empty-k1-n3"], 16) == 16**3 - 1
        assert brute_force_count(corpus["empty-k2-n1"], 9) == 8**2
        with pytest.raises(ValueError):
            brute_force_count(corpus["empty-k1-n2"], 6)


# a child's ru_maxrss also counts the pages of the process that started it, up
# to its exec; a small launcher in between keeps the test process out of it
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_field_oracle_peak_memory_in_a_fresh_interpreter():
    # N = 249000 at q = 499: one N-long list of logs and the power cycles peak
    # near 24 MB; N-long tables per exponent and N-entry dicts reach 67 MB
    from conftest import CORPUS, CORPUS_TEXTS

    code = (
        "import resource, sys\n"
        "from porcfield import brute_force_count, parse_system\n"
        "print(brute_force_count(parse_system(sys.argv[1]), 499))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    text = CORPUS_TEXTS["cube-vs-frobenius"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-c", code, text],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    count, peak_kb = map(int, result.stdout.split())
    assert count == count_at(CORPUS["cube-vs-frobenius"], 499)
    assert peak_kb < 45 * 1024, peak_kb


class TestReducibleModulus:
    # accept every candidate, so GF(2^2) is built on t^2, which is not a field
    @pytest.fixture(autouse=True)
    def accept_every_modulus(self, monkeypatch):
        monkeypatch.setattr(ffield, "gf_is_irreducible", lambda a, p: True)

    def test_ring_is_built_on_t_squared(self):
        assert make_field(2, 2).modulus == (0, 0, 1)

    def test_count_finds_no_generator(self):
        system = make_system(1, 1, eqs=[(3,)])
        with pytest.raises(ConsistencyError, match="no generator"):
            brute_force_count(system, 4)

    def test_verify_exits_3(self, capsys):
        argv = ["verify", "--text", "field GF(q^1); vars x; eq x^3 = 1", "--q-range", "4:4"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal consistency error: no generator")


class TestExponentSpace:
    def test_worked_example(self, quadratic_system):
        assert exponent_space_count(quadratic_system, 3) == 12

    def test_equations_only(self, quadratic_equations_only):
        assert exponent_space_count(quadratic_equations_only, 3) == 16

    def test_empty_system_counts_all_tuples(self):
        assert exponent_space_count(make_system(2, 2), 2) == 9

    def test_any_integer_q_accepted(self, quadratic_system):
        assert exponent_space_count(quadratic_system, 6) == 30

    def test_tuple_cap(self, monkeypatch):
        monkeypatch.setattr(ffield, "MAX_TUPLES", 1000)
        with pytest.raises(ScaleCapError):
            exponent_space_count(make_system(3, 2), 9)

    def test_tuple_cap_boundary(self, quadratic_system, monkeypatch):
        # the cap counts the 8^2 tuples of Z_8^2 at q = 3, n = 2, not histogram entries
        monkeypatch.setattr(ffield, "MAX_TUPLES", 64)
        assert exponent_space_count(quadratic_system, 3) == 12
        monkeypatch.setattr(ffield, "MAX_TUPLES", 63)
        with pytest.raises(ScaleCapError) as info:
            exponent_space_count(quadratic_system, 3)
        assert str(info.value) == "8^2 exponent tuples exceed MAX_TUPLES = 63"


def test_oracles_agree_on_corpus(corpus):
    for name, system in corpus.items():
        for q0 in (2, 3, 4, 5, 7, 8, 9):
            size = (q0**system.n - 1) ** system.k
            if size > 200_000:
                continue
            assert brute_force_count(system, q0) == exponent_space_count(system, q0), (
                name,
                q0,
            )


def test_oracles_agree_on_small_random_systems():
    for system in small_random_systems():
        for q0 in (2, 3, 4, 5):
            assert brute_force_count(system, q0) == exponent_space_count(system, q0)


def test_field_oracle_matches_literal_products(corpus):
    cases = list(corpus.items())
    cases += [(f"random-{i}", system) for i, system in enumerate(small_random_systems())]
    for name, system in cases:
        for q0 in (2, 3, 4, 5):
            assert brute_force_count(system, q0) == reference_count(system, q0), (name, q0)


# linear exponents a*q + b
linear_exponents = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(IntPoly)


def test_field_oracle_reads_literal_products(corpus, monkeypatch):
    system = corpus["quadratic"]
    true_mul = ffield.FieldContext.mul

    # a product that ignores its right operand: no orbit reaches every element
    monkeypatch.setattr(ffield.FieldContext, "mul", lambda self, a, b: a)
    with pytest.raises(ConsistencyError, match="no generator"):
        brute_force_count(system, 3)

    # a product that comes out as b where it should be one: the order test
    # reads t^4 as -1 instead of 1 and passes t, whose orbit then falls back
    # onto t after four elements instead of eight
    def wrong_at_one(self, a, b):
        value = true_mul(self, a, b)
        return b if value == self.one else value

    monkeypatch.setattr(ffield.FieldContext, "mul", wrong_at_one)
    with pytest.raises(ConsistencyError):
        brute_force_count(system, 3)


# the literal-product reference is slow; every case below covers at most this many tuples
REFERENCE_CAP = 300


@st.composite
def lookup_cases(draw):
    # k <= 3 unknowns, frequent zero exponents so that equations skip unknowns,
    # possibly no equation at all, and a permutation of the unknowns
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    exps = st.one_of(st.just(IntPoly([0])), linear_exponents)
    rows = st.lists(st.tuples(*[exps] * k), max_size=3)
    return k, n, draw(rows), draw(rows), draw(st.permutations(range(k)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(lookup_cases())
def test_resolved_unknown_matches_literal_products(case):
    # the oracle resolves the unknown whose table prunes most and loops over
    # every tuple without an equation; the reference multiplies every tuple out
    k, n, eqs, neqs, order = case
    system = make_system(k, n, eqs, neqs)
    permuted = make_system(
        k,
        n,
        [tuple(row[i] for i in order) for row in eqs],
        [tuple(row[i] for i in order) for row in neqs],
    )
    # q0 = 2 with n = 1 is GF(2), whose multiplicative group has order 1
    for q0 in (2, 3, 4, 5, 7):
        if (q0**n - 1) ** k <= REFERENCE_CAP:
            assert brute_force_count(permuted, q0) == reference_count(system, q0), q0


@st.composite
def oracle_sized_systems(draw):
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 2))
    rows = draw(st.lists(st.tuples(st.booleans(), st.tuples(*[linear_exponents] * k)), max_size=3))
    eqs = [row for is_eq, row in rows if is_eq]
    neqs = [row for is_eq, row in rows if not is_eq]
    return make_system(k, n, eqs=eqs, neqs=neqs)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(oracle_sized_systems())
def test_four_way_agreement(system):
    cf = synthesize_counting_function(system)
    for q0 in (2, 3, 4, 5):
        if (q0**system.n - 1) ** system.k > 10**4:
            continue
        expected = count_at(system, q0)
        assert counting_eval(cf, q0) == expected
        assert exponent_space_count(system, q0) == expected
        assert brute_force_count(system, q0) == expected


# the exponent oracle's cap in the property below; every draw fits under it
ENUMERATION_CAP = 1024


@st.composite
def exponent_oracle_cases(draw):
    # a system, a q0 whose (q0^n - 1)^k tuples fit the cap, and a permutation
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 2))
    rows = st.lists(st.tuples(*[linear_exponents] * k), max_size=3)
    eqs, neqs = draw(rows), draw(rows)
    q_max = max(q0 for q0 in range(2, 10) if (q0**n - 1) ** k <= ENUMERATION_CAP)
    q0 = draw(st.integers(2, q_max))
    return k, n, eqs, neqs, q0, draw(st.permutations(range(k)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(exponent_oracle_cases())
def test_exponent_oracle_matches_a_literal_product_count(case):
    k, n, eqs, neqs, q0, order = case
    modulus = q0**n - 1
    relations = [([e(q0) for e in row], True) for row in eqs]
    relations += [([e(q0) for e in row], False) for row in neqs]
    expected = 0
    for ms in product(range(modulus), repeat=k):
        if all(
            (sum(b * m for b, m in zip(betas, ms)) % modulus == 0) == is_eq
            for betas, is_eq in relations
        ):
            expected += 1
    # permuting the unknowns moves the split between the two halves
    permuted = make_system(
        k,
        n,
        [tuple(row[i] for i in order) for row in eqs],
        [tuple(row[i] for i in order) for row in neqs],
    )
    # the cap admits exactly modulus^k tuples
    with patch.object(ffield, "MAX_TUPLES", modulus**k):
        assert exponent_space_count(make_system(k, n, eqs, neqs), q0) == expected
        assert exponent_space_count(permuted, q0) == expected
