"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from math import gcd, prod

from porcfield import (
    IntPoly,
    brute_force_count,
    build_relation_matrix,
    evaluate_matrix,
    exponent_space_count,
    make_system,
    maximal_minors,
    parse_poly,
    parse_system,
    porc_eval,
    porc_to_residue_table,
    smith_normal_form,
    synthesize_counting_function,
    synthesize_gcd_function,
)
from porcfield.porc import GcdPorcFunction, PORC_ONE, PorcExpression, check_porc_invariants
from porcfield.system import CountingFunction

from conftest import CORPUS, QUADRATIC_TEXT
from literal_oracle import build_indicator


def _report(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


def _totient(m):
    out, mm, p = m, m, 2
    while p * p <= mm:
        if mm % p == 0:
            out -= out // p
            while mm % p == 0:
                mm //= p
        p += 1
    if mm > 1:
        out -= out // mm
    return out


def test_criterion_1_worked_example_end_to_end():
    """Synthesized counting function == field oracle on the quadratic system."""
    started = time.monotonic()
    golden = {2: 2, 3: 12, 4: 12, 5: 40, 7: 84, 8: 56, 9: 144}
    system = parse_system(QUADRATIC_TEXT)
    cf = synthesize_counting_function(system)
    for q0, expected in golden.items():
        from_field = brute_force_count(system, q0)
        from_closed_form = cf(q0)
        assert from_field == expected, f"oracle disagrees with golden at q={q0}"
        assert from_closed_form == expected, f"closed form wrong at q={q0}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    _report(1, f"end-to-end worked example, 7 q values in {elapsed:.2f}s")


def test_criterion_2_divisor_product_equals_minor_gcd_equals_oracle():
    """SNF product == gcd of |evaluated minors| == exponent-space count."""
    rng = random.Random(160901)
    systems = 0
    checks = 0
    while systems < 200:
        k = rng.randint(1, 3)
        n = rng.randint(1, 2)
        eqs = []
        for _ in range(rng.randint(0, 4)):
            eqs.append(
                tuple(
                    IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 2) + 1)])
                    for _ in range(k)
                )
            )
        system = make_system(k, n, eqs=eqs)
        matrix = build_relation_matrix([r.exponents for r in system.relations], k, n)
        minors = maximal_minors(matrix)
        for q0 in range(2, 10):
            by_snf = prod(smith_normal_form(evaluate_matrix(matrix, q0)))
            by_minors = gcd(*(p(q0) for p in minors))
            by_oracle = exponent_space_count(system, q0)
            assert by_snf == by_minors == by_oracle, (k, n, q0)
            checks += 1
        systems += 1
    _report(2, f"{systems} random systems, {checks} exact three-way equalities")


def test_criterion_3_gcd_synthesis_soundness_sweep():
    """gcd(f_1(x),...,f_s(x)) == d(x)*|f(x)| on [-200, 200], plus structure."""
    rng = random.Random(30901)
    families = 0
    while families < 300:
        fs = [
            IntPoly([rng.randint(-15, 15) for _ in range(rng.randint(0, 5) + 1)])
            for _ in range(rng.randint(1, 4))
        ]
        if all(not f for f in fs):
            continue
        g = synthesize_gcd_function(fs)
        check_porc_invariants(g.d)  # m_i > 1, 0 <= n_i < m_i, no dup/zero terms
        phi = _totient(g.m) if g.m > 1 else 1
        assert phi % g.d.alpha.denominator == 0
        for coeff, _, mi in g.d.terms:
            assert mi > 1 and g.m % mi == 0
            assert phi % coeff.denominator == 0
        for x in range(-200, 201):
            fv = g.f(x)
            if fv == 0:
                continue
            true = 0
            for p in fs:
                if p:
                    true = gcd(true, p(x))
            assert porc_eval(g.d, x) * abs(fv) == true, (x, [str(p) for p in fs])
        families += 1
    _report(3, f"{families} random families, 401-point windows, all structural checks")


def test_criterion_4_indicator_identities():
    """k(x) = 0 for 1 <= x < m and k(m) = m * prod(1 - 1/p), for m up to 500."""
    for m in range(2, 501):
        e = build_indicator(m)
        check_porc_invariants(e)
        for x in range(1, m):
            assert porc_eval(e, x) == 0, (m, x)
        assert porc_eval(e, m) == _totient(m), m
    _report(4, "all moduli in [2, 500], every residue checked exactly")


def test_criterion_5_snf_invariance_and_divisor_chain():
    """Divisor chains survive unimodular ops; relation divisors divide q^n - 1."""
    rng = random.Random(50901)
    for _ in range(200):
        r = rng.randint(1, 5)
        k = rng.randint(1, 5)
        mat = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(r)]
        reference = smith_normal_form(mat)
        for a, b in zip(reference, reference[1:]):
            if a == 0:
                assert b == 0
            elif b:
                assert b % a == 0
        work = [row[:] for row in mat]
        for _ in range(50):
            op = rng.randrange(6)
            if op == 0 and r > 1:
                i, j = rng.sample(range(r), 2)
                work[i], work[j] = work[j], work[i]
            elif op == 1:
                i = rng.randrange(r)
                work[i] = [-x for x in work[i]]
            elif op == 2 and r > 1:
                i, j = rng.sample(range(r), 2)
                c = rng.randint(-4, 4)
                work[i] = [x + c * y for x, y in zip(work[i], work[j])]
            elif op == 3 and k > 1:
                i, j = rng.sample(range(k), 2)
                for row in work:
                    row[i], row[j] = row[j], row[i]
            elif op == 4:
                i = rng.randrange(k)
                for row in work:
                    row[i] = -row[i]
            elif op == 5 and k > 1:
                i, j = rng.sample(range(k), 2)
                c = rng.randint(-4, 4)
                for row in work:
                    row[i] += c * row[j]
        assert smith_normal_form(work) == reference
    # every divisor of an evaluated relation matrix divides q^n - 1
    for system in CORPUS.values():
        rows = [rel.exponents for rel in system.equations]
        matrix = build_relation_matrix(rows, system.k, system.n)
        for q0 in range(2, 10):
            group = q0**system.n - 1
            for d in smith_normal_form(evaluate_matrix(matrix, q0)):
                assert d and group % d == 0, (q0, d)
    _report(5, "200 matrices x 50 unimodular ops; divisor chains and q^n-1 divisibility")


def test_criterion_6_pretty_printer_fixture():
    """The order-p^6 expression: values at 5 and 7, residue table modulus 60."""
    fixture = CountingFunction(
        terms=(
            (1, GcdPorcFunction(f=parse_poly("3*p^2+39*p+344"), d=PORC_ONE, m=1)),
            (1, GcdPorcFunction(
                f=IntPoly([1]),
                d=PorcExpression(0, ((24, 1, 3),)), m=72)),
            (1, GcdPorcFunction(
                f=IntPoly([1]),
                d=PorcExpression(0, ((11, 1, 4),)), m=44)),
            (1, GcdPorcFunction(
                f=IntPoly([1]),
                d=PorcExpression(0, ((2, 1, 5),)), m=10)),
        )
    )
    # re-derived by hand from the printed formula:
    #   p=5: 75+195+344 + 24*gcd(4,3) + 11*gcd(4,4) + 2*gcd(4,5) = 614+24+44+2
    #   p=7: 147+273+344 + 24*gcd(6,3) + 11*gcd(6,4) + 2*gcd(6,5) = 764+72+22+2
    assert fixture(5) == 684
    assert fixture(7) == 860
    assert fixture.render("p") == (
        "3*p^2+39*p+344 + 24*gcd(p-1,3) + 11*gcd(p-1,4) + 2*gcd(p-1,5)"
    )
    modulus, table = porc_to_residue_table(fixture)
    assert modulus == 60
    assert table[1] == parse_poly("3*p^2+39*p+470")  # class p = 1 mod 60
    for p0 in (61, 121, 181):
        assert table[1](p0) == fixture(p0)
    _report(6, "order-p^6 fixture: 684 at p=5, 860 at p=7, table modulus 60")


def test_criterion_7_cross_oracle_agreement():
    """Field enumeration == exponent enumeration on the whole corpus."""
    checks = 0
    for name, system in CORPUS.items():
        for q0 in (2, 3, 4, 5, 7, 8, 9):
            if (q0**system.n - 1) ** system.k > 10**6:
                continue
            assert brute_force_count(system, q0) == exponent_space_count(system, q0), (
                name,
                q0,
            )
            checks += 1
    _report(7, f"{checks} (system, q) pairs agree across both oracles")
