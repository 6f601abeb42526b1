"""Relation matrices: construction, symbolic minors, evaluation."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, prod

import pytest

from porcfield import (
    IntPoly,
    ScaleCapError,
    build_relation_matrix,
    evaluate_matrix,
    exponent_space_count,
    make_system,
    maximal_minors,
    parse_poly,
    smith_normal_form,
)
import porcfield.relmat as relmat

Q2M1 = parse_poly("q^2-1")
QP1 = parse_poly("q+1")
QM1 = parse_poly("q-1")
ZERO = IntPoly()


class TestBuilder:
    def test_quadratic_system_rows(self):
        m = build_relation_matrix([(Q2M1, ZERO), (QP1, IntPoly([-2]))], 2, 2)
        assert m == (
            (Q2M1, ZERO),
            (QP1, IntPoly([-2])),
            (Q2M1, ZERO),
            (ZERO, Q2M1),
        )

    def test_membership_only(self):
        m = build_relation_matrix([], 1, 3)
        assert m == ((parse_poly("q^3-1"),),)

    def test_second_displayed_matrix(self):
        m = build_relation_matrix([(QM1, ZERO), (QP1, IntPoly([-2]))], 2, 2)
        assert m == (
            (QM1, ZERO),
            (QP1, IntPoly([-2])),
            (Q2M1, ZERO),
            (ZERO, Q2M1),
        )

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            build_relation_matrix([(Q2M1,)], 2, 2)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_relation_matrix([], 0, 2)
        with pytest.raises(ValueError):
            build_relation_matrix([], 1, 0)


class TestMinors:
    def test_quadratic_system_minors(self):
        m = build_relation_matrix([(Q2M1, ZERO), (QP1, IntPoly([-2]))], 2, 2)
        minors = maximal_minors(m)
        assert minors[0] == -2 * Q2M1  # rows {0,1}
        assert minors[1] == ZERO  # rows {0,2}, duplicated row
        assert minors[2] == Q2M1 * Q2M1  # rows {0,3}
        assert minors[3] == 2 * Q2M1  # rows {1,2}
        assert minors[4] == QP1 * Q2M1  # rows {1,3}
        assert minors[5] == Q2M1 * Q2M1  # rows {2,3}

    def test_membership_minor_is_group_order_power(self):
        for k, n in ((1, 1), (2, 2), (3, 1)):
            m = build_relation_matrix([], k, n)
            minors = maximal_minors(m)
            assert minors == [prod([relmat._membership_poly(n)] * k, start=IntPoly((1,)))]

    @pytest.mark.parametrize(
        "widths, message",
        [((3, 2, 3), "row 1 has width 2, expected 3"), ((2, 2, 3), "row 2 has width 3, expected 2")],
        ids=["short", "long"],
    )
    def test_rows_of_another_width_are_refused(self, widths, message):
        # a short row used to raise a bare IndexError, a long one lost its extra entries
        rows = tuple(tuple(IntPoly.constant(1 + j) for j in range(w)) for w in widths)
        with pytest.raises(ValueError, match=message):
            maximal_minors(rows)

    def test_subset_limit_raises(self, monkeypatch):
        m = build_relation_matrix([(Q2M1, ZERO), (QP1, IntPoly([-2]))], 2, 2)
        monkeypatch.setattr(relmat, "WORK_BUDGET", 5)
        limit_hit = r"C\(4, 2\) = 6 maximal minors exceed WORK_BUDGET = 5"
        with pytest.raises(ScaleCapError, match=limit_hit):
            maximal_minors(m)
        monkeypatch.setattr(relmat, "WORK_BUDGET", 6)
        assert len(maximal_minors(m)) == 6


class TestEvaluate:
    def test_quadratic_system_at_3(self):
        m = build_relation_matrix([(Q2M1, ZERO), (QP1, IntPoly([-2]))], 2, 2)
        assert evaluate_matrix(m, 3) == [[8, 0], [4, -2], [8, 0], [0, 8]]

    def test_membership_only_at_2(self):
        m = build_relation_matrix([], 1, 3)
        assert evaluate_matrix(m, 2) == [[7]]

    def test_second_matrix_at_3(self):
        m = build_relation_matrix([(QM1, ZERO), (QP1, IntPoly([-2]))], 2, 2)
        assert evaluate_matrix(m, 3) == [[2, 0], [4, -2], [8, 0], [0, 8]]

    def test_degenerate_q_rejected(self):
        m = build_relation_matrix([], 1, 2)
        for q0 in (1, 0, -5):
            with pytest.raises(ValueError, match="degenerate"):
                evaluate_matrix(m, q0)


def _random_poly(rng, max_deg=2, bound=4):
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg) + 1)])


def _random_entry(rng, max_deg=2, bound=4):
    # about a third of the entries are zero, so the zero-skipping paths run
    return ZERO if rng.random() < 0.3 else _random_poly(rng, max_deg, bound)


def _det(rows):
    return relmat._leading_minors(rows, len(rows)).get(tuple(range(len(rows))), ZERO)


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(55)
    for size in (1, 2, 3, 4):
        for trial in range(30):
            rows = [[_random_entry(rng) for _ in range(size)] for _ in range(size)]
            if trial == 0 and size > 1:
                rows[-1] = rows[0]
            assert _det(rows) == _poly_cofactor(rows)


def test_bareiss_on_larger_matrices_via_evaluation():
    # sizes where a symbolic cofactor expansion in the test would be slow:
    # compare with integer determinants of the evaluated matrix instead
    rng = random.Random(56)
    for size in (5, 6, 7, 8):
        for trial in range(12):
            rows = [[_random_entry(rng) for _ in range(size)] for _ in range(size)]
            if trial == 0:
                rows[-1] = rows[0]
            det = _det(rows)
            for x in (0, 1, 2, -3, 5):
                assert det(x) == _eval_det([[p(x) for p in row] for row in rows])


def _poly_cofactor(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = ZERO
    for i, row in enumerate(rows):
        if row[0] != ZERO:
            minor = [r[1:] for j, r in enumerate(rows) if j != i]
            term = row[0] * _poly_cofactor(minor)
            total = total - term if i % 2 else total + term
    return total


def test_maximal_minors_match_integer_determinants():
    rng = random.Random(57)
    shapes = [(k, e, 1 + (k + e) % 2) for k in range(1, 8) for e in range(5)]
    shapes += [(8, 0, 2), (8, 2, 1), (8, 4, 2)]
    for k, e, n in shapes:
        eqs = [tuple(_random_entry(rng, 1, 3) for _ in range(k)) for _ in range(e)]
        if e >= 2:
            eqs[-1] = eqs[-2]  # a duplicated row
        if e >= 3:
            eqs[0] = (ZERO,) * k  # a zero row
        matrix = build_relation_matrix(eqs, k, n)
        minors = maximal_minors(matrix)
        nrows = len(matrix)
        assert len(minors) == comb(nrows, k)
        for q0 in (2, 3, 4):
            evaluated = evaluate_matrix(matrix, q0)
            for minor, subset in zip(minors, combinations(range(nrows), k)):
                assert minor(q0) == _eval_det([evaluated[i] for i in subset]), (k, e, subset)


def _eval_det(mat):
    return _int_det(mat) if len(mat) <= 6 else _fraction_det(mat)


def _fraction_det(mat):
    a = [[Fraction(v) for v in row] for row in mat]
    size = len(a)
    det = Fraction(1)
    for t in range(size):
        pivot = next((i for i in range(t, size) if a[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, size):
            ratio = a[i][t] / a[t][t]
            for j in range(t, size):
                a[i][j] -= ratio * a[t][j]
    assert det.denominator == 1
    return det.numerator


def _int_det(mat):
    size = len(mat)
    if size == 1:
        return mat[0][0]
    total = 0
    sign = 1
    for i in range(size):
        if mat[i][0]:
            minor = [row[1:] for j, row in enumerate(mat) if j != i]
            total += sign * mat[i][0] * _int_det(minor)
        sign = -sign
    return total


def _random_equation_system(rng):
    k = rng.randint(1, 3)
    n = rng.randint(1, 2)
    eqs = []
    for _ in range(rng.randint(0, 3)):
        eqs.append(tuple(_random_poly(rng) for _ in range(k)))
    return make_system(k, n, eqs=eqs)


def test_minor_gcd_equals_divisor_product_equals_oracle():
    # the symbolic and elementary-divisor counts of an equation system agree,
    # and both match the exponent-space enumeration
    rng = random.Random(919)
    for _ in range(40):
        system = _random_equation_system(rng)
        rows = [r.exponents for r in system.relations]
        matrix = build_relation_matrix(rows, system.k, system.n)
        minors = maximal_minors(matrix)
        for q0 in range(2, 8):
            by_minors = gcd(*(p(q0) for p in minors))
            by_snf = prod(smith_normal_form(evaluate_matrix(matrix, q0)))
            assert by_minors == by_snf
            if (q0**system.n - 1) ** system.k <= 100_000:
                assert by_snf == exponent_space_count(system, q0)


def test_evaluated_matrix_has_full_rank():
    rng = random.Random(920)
    for _ in range(25):
        system = _random_equation_system(rng)
        rows = [r.exponents for r in system.relations]
        matrix = build_relation_matrix(rows, system.k, system.n)
        for q0 in (2, 3, 5):
            divisors = smith_normal_form(evaluate_matrix(matrix, q0))
            assert 0 not in divisors
