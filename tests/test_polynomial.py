"""Exact polynomial arithmetic: gcd, cofactors, content, evaluation."""

import random
from fractions import Fraction

import pytest

from porcfield import (
    IntPoly,
    RatPoly,
    bezout_cofactors,
    content_and_primitive,
    parse_poly,
)


def P(text):
    return parse_poly(text)


class TestEvalPoly:
    def test_quadratic_at_3(self):
        assert P("q^2-1")(3) == 8

    def test_zero_polynomial(self):
        assert IntPoly()(12345) == 0

    def test_order_p6_leading_part_at_5(self):
        # 75 + 195 + 344, worked by hand
        assert P("3*q^2+39*q+344")(5) == 614

    def test_huge_point_is_exact(self):
        x = 10**30
        assert P("q^3-q")(x) == x**3 - x


class TestContentAndPrimitive:
    def test_even_coefficients(self):
        assert content_and_primitive(P("6*x^2+4*x")) == (2, P("3*x^2+2*x"))

    def test_sign_moves_into_content(self):
        assert content_and_primitive(P("-3*x")) == (-3, P("x"))

    def test_constant(self):
        assert content_and_primitive(IntPoly([5])) == (5, IntPoly([1]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="no primitive part"):
            content_and_primitive(IntPoly())


class TestRationalGcd:
    def test_one_euclid_step(self):
        assert bezout_cofactors([P("x^2-1"), P("x^3-1")])[0] == P("x-1")

    def test_difference_is_2x(self):
        assert bezout_cofactors([P("x^2+x"), P("x^2-x")])[0] == P("x")

    def test_gcd_with_itself_is_primitive(self):
        assert bezout_cofactors([P("2*x+2"), P("2*x+2")])[0] == P("x+1")

    def test_zero_members_skipped(self):
        assert bezout_cofactors([IntPoly(), P("x^2-1"), IntPoly(), P("x^3-1")])[0] == P("x-1")

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            bezout_cofactors([IntPoly(), IntPoly()])


class TestBezoutCofactors:
    def test_cofactors_of_cyclotomic_pair(self):
        f, gs, m = bezout_cofactors([P("x^2-1"), P("x^3-1")])
        assert f == P("x-1")
        assert gs[0] == RatPoly([0, -1]) and gs[1] == RatPoly([1])
        assert m == 1

    def test_half_difference(self):
        f, gs, m = bezout_cofactors([P("x^2+x"), P("x^2-x")])
        assert f == P("x")
        assert gs[0] == RatPoly([Fraction(1, 2)])
        assert gs[1] == RatPoly([Fraction(-1, 2)])
        assert m == 2

    def test_single_input(self):
        f, gs, m = bezout_cofactors([P("x")])
        assert (f, m) == (P("x"), 1)
        assert gs == [RatPoly([1])]

    def test_constant_input_scales(self):
        f, gs, m = bezout_cofactors([IntPoly([2])])
        assert (f, m) == (IntPoly([1]), 2)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            bezout_cofactors([IntPoly()])


def _random_family(rng, max_s=4, max_deg=6, coeff_bound=20):
    fs = []
    for _ in range(rng.randint(1, max_s)):
        deg = rng.randint(0, max_deg)
        fs.append(IntPoly([rng.randint(-coeff_bound, coeff_bound) for _ in range(deg + 1)]))
    return fs


def test_bezout_identity_500_random_families():
    rng = random.Random(1405)
    checked = 0
    while checked < 500:
        fs = _random_family(rng)
        if all(not f for f in fs):
            continue
        f, gs, m = bezout_cofactors(fs)
        acc = RatPoly()
        for fi, gi in zip(fs, gs):
            acc = acc + RatPoly.from_int(fi) * gi
        assert acc == RatPoly.from_int(f), [str(p) for p in fs]
        assert m >= 1
        for gi in gs:
            assert m % gi.denominator_lcm() == 0
        checked += 1


def test_gcd_divides_every_member():
    rng = random.Random(77)
    for _ in range(200):
        fs = _random_family(rng)
        if all(not f for f in fs):
            continue
        f = bezout_cofactors(fs)[0]
        assert f.leading > 0
        assert content_and_primitive(f)[0] == 1
        for fi in fs:
            if fi:
                _, rem = divmod(RatPoly.from_int(fi), RatPoly.from_int(f))
                assert not rem, f"{f} does not divide {fi}"


def test_content_primitive_roundtrip():
    rng = random.Random(99)
    for _ in range(300):
        p = IntPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 7))])
        if not p:
            continue
        c, prim = content_and_primitive(p)
        assert c * prim == p
        assert prim.leading > 0
        assert content_and_primitive(prim)[0] == 1


class TestExactDiv:
    def test_quotients_of_random_products(self):
        rng = random.Random(2113)
        for _ in range(200):
            a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            if not b:
                continue
            assert (a * b).exact_div(b) == a

    def test_nonzero_remainder_raises(self):
        with pytest.raises(ValueError, match="inexact"):
            P("x^2").exact_div(P("x+1"))

    def test_non_integral_quotient_raises(self):
        with pytest.raises(ValueError, match="inexact"):
            P("x+1").exact_div(P("2*x+2"))

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            P("x").exact_div(IntPoly())


def test_evaluation_is_ring_homomorphism():
    rng = random.Random(4)
    for _ in range(200):
        a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        x = rng.randint(-40, 40)
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


class TestParsePoly:
    def test_roundtrip_of_render(self):
        rng = random.Random(11)
        for _ in range(100):
            p = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            assert parse_poly(p.render("x")) == p

    def test_plain_forms(self):
        assert parse_poly("x^2+x") == IntPoly([0, 1, 1])
        assert parse_poly("-2") == IntPoly([-2])
        assert parse_poly("3*q^2-1") == IntPoly([-1, 0, 3])

    def test_conflicting_variables_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            parse_poly("x+y")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("x^")
        with pytest.raises(ValueError):
            parse_poly("2x")
        with pytest.raises(ValueError):
            parse_poly("")
