"""Smith normal form: examples, unimodular invariance, divisor chains, minors."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from porcfield import smith_normal_form


class TestExamples:
    def test_identity_already_reduced(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_2x2(self):
        # entry gcd 2, |det| 8
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]

    def test_quadratic_system_matrix_at_3(self):
        assert smith_normal_form([[8, 0], [4, -2], [8, 0], [0, 8]]) == [2, 8]

    def test_rank_deficient_pads_zeros(self):
        assert smith_normal_form([[2, 4], [4, 8]]) == [2, 0]
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]

    def test_wide_matrix(self):
        assert smith_normal_form([[1, 0, 0]]) == [1, 0, 0]

    @pytest.mark.parametrize(
        "rows, divisors",
        [
            ([[-2, 2, 4], [4, -5, 2]], [1, 2, 0]),
            ([[-2, -4, -5], [-4, 1, 4], [1, 4, -1], [2, -1, 6]], [1, 1, 1]),
            ([[4, -5, 6], [-1, -1, 6], [-6, 5, 1]], [1, 1, 15]),
        ],
    )
    def test_pivot_that_divides_its_entry_is_kept(self, rows, divisors):
        # the echelon subtracts before any swap, so a pivot row that divides
        # the entry below it stays as it is; an echelon that swaps first, or
        # that applies the extended-gcd 2x2 transform, never reaches a
        # diagonal on the last two
        assert smith_normal_form(rows) == divisors


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])

    @pytest.mark.parametrize(
        "rows", [[[2.5, 0], [0, True]], [[2, 0], [0, True]], [["7", 3]], [[Fraction(4), 2]]]
    )
    def test_non_int_entries_rejected(self, rows):
        # int() would have read 2.5 as 2, True as 1 and "7" as 7
        with pytest.raises(ValueError, match="expected an integer"):
            smith_normal_form(rows)


def _random_matrix(rng, max_dim=5, bound=30):
    r = rng.randint(1, max_dim)
    k = rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(r)]


def _apply_random_unimodular_ops(rng, mat, count):
    a = [row[:] for row in mat]
    r, k = len(a), len(a[0])
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0 and r > 1:
            i, j = rng.sample(range(r), 2)
            a[i], a[j] = a[j], a[i]
        elif kind == 1:
            i = rng.randrange(r)
            a[i] = [-x for x in a[i]]
        elif kind == 2 and r > 1:
            i, j = rng.sample(range(r), 2)
            c = rng.randint(-3, 3)
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif kind == 3 and k > 1:
            i, j = rng.sample(range(k), 2)
            for row in a:
                row[i], row[j] = row[j], row[i]
        elif kind == 4:
            i = rng.randrange(k)
            for row in a:
                row[i] = -row[i]
        elif kind == 5 and k > 1:
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-3, 3)
            for row in a:
                row[i] += c * row[j]
    return a


def test_divisors_invariant_under_unimodular_ops():
    rng = random.Random(2718)
    for _ in range(500):
        mat = _random_matrix(rng)
        reference = smith_normal_form(mat)
        shuffled = _apply_random_unimodular_ops(rng, mat, rng.randint(1, 12))
        assert smith_normal_form(shuffled) == reference


def test_divisibility_chain_always_holds():
    rng = random.Random(31415)
    for _ in range(400):
        divisors = smith_normal_form(_random_matrix(rng))
        for a, b in zip(divisors, divisors[1:]):
            if a == 0:
                assert b == 0, "zeros must trail"
            elif b != 0:
                assert b % a == 0
        assert all(d >= 0 for d in divisors)


def _determinant(m):
    """Leibniz expansion: the signed sum over permutations of products of entries."""
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        total += (-1) ** inversions * prod(m[i][p] for i, p in enumerate(perm))
    return total


matrices = st.integers(1, 4).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-20, 20), min_size=k, max_size=k), min_size=1, max_size=4
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_divisor_products_are_the_gcds_of_minors(mat):
    # d_1 * ... * d_i = D_i, the gcd of all i x i minors, up to the rank; past it d_i = 0
    divisors = smith_normal_form(mat)
    r, k = len(mat), len(mat[0])
    for i in range(1, k + 1):
        d_i = gcd(*(
            _determinant([[mat[a][b] for b in cols] for a in rows])
            for rows in combinations(range(r), i)
            for cols in combinations(range(k), i)
        ))
        if d_i:
            assert prod(divisors[:i]) == d_i, (i, divisors)
        else:
            assert divisors[i - 1] == 0, (i, divisors)
