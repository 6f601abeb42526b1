"""Smith normal form of integer matrices: row echelon and transpose, then gcd/lcm.

Matrices are plain sequences of rows of Python ints, so there is no
precision limit.  Only the elementary-divisor chain is computed; the
unimodular transforms are not tracked.
"""

from itertools import combinations
from math import gcd, lcm

from .errors import ConsistencyError
from .polynomial import _int


def _validate(rows) -> list[list[int]]:
    mat = [[_int(x, "a matrix entry") for x in r] for r in rows]
    if not mat or not mat[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise ValueError("ragged matrix")
    return mat


def _echelon(rows) -> list:
    """An integer row echelon of rows, by Euclid on rows; zero rows are dropped."""
    pivots = {}
    for row in rows:
        for j in range(len(row)):
            if not row[j]:
                continue
            if j not in pivots:
                pivots[j] = row
                break
            pivot = pivots[j]
            # subtract before any swap: a pivot that divides row[j] stays as it
            # is, which the passes of smith_normal_form need in order to end
            while row[j]:
                q = row[j] // pivot[j]
                row = [x - q * y for x, y in zip(row, pivot)]
                if row[j]:
                    row, pivot = pivot, row
            pivots[j] = pivot
    return [pivots[j] for j in sorted(pivots)]


def smith_normal_form(rows) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of the matrix, one per column.

    An integer row echelon, then a transpose, repeated until the matrix is
    diagonal: each pass can only shrink the corner entry, and once it does
    not, the corner divides its row and its column and they are clear.  The
    diagonal's pairs (d_i, d_j), i < j, then become (gcd, lcm).  Divisors are
    reported nonnegative; if the rank is smaller than the number of columns
    the chain is padded with trailing zeros.
    """
    a = _validate(rows)
    k = len(a[0])
    while True:
        a = _echelon(a)
        if all(row[i] and not any(row[i + 1 :]) for i, row in enumerate(a)):
            break
        a = list(zip(*a))
    divisors = [abs(row[i]) for i, row in enumerate(a)]
    for i, j in combinations(range(len(divisors)), 2):
        divisors[i], divisors[j] = gcd(divisors[i], divisors[j]), lcm(divisors[i], divisors[j])
    divisors += [0] * (k - len(divisors))
    for i in range(k - 1):
        if divisors[i + 1] and divisors[i + 1] % max(divisors[i], 1):
            raise ConsistencyError("divisor chain violated")  # pragma: no cover
    return divisors
