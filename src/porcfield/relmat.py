"""Relation matrices over integer polynomials in q.

A relation matrix is a tuple of rows of IntPoly, all of one width k: the
exponent vectors of a monomial system's relations followed by one
membership row (q^n - 1)*e_i per unknown.  The matrix of an equation system
is a selection of those rows, and its maximal minors are the full matrix's
minors on the selected rows.  Counting solutions at a concrete q reduces to
the elementary divisors of the evaluated matrix, or equivalently to the gcd
of the evaluated maximal minors.

All minors come from one exact routine: a column-by-column Laplace
expansion that builds the j x j minors on the first j columns from the
(j-1) x (j-1) ones, memoized by row subset.  No division is ever needed.
"""

from bisect import bisect_left
from itertools import combinations
from math import comb

from .errors import ScaleCapError
from .polynomial import IntPoly, _int

#: Most maximal minors one expansion may ask for: C(r, k) in one
#: maximal_minors call, and W, their sum over a system's inclusion-exclusion
#: subsets, which the system module checks before it builds any matrix.
#: The slowest accepted shapes synthesize within a minute.
WORK_BUDGET = 10**6


def _membership_poly(n: int) -> IntPoly:
    """The exponent q^n - 1 every unknown must satisfy."""
    return IntPoly.monomial(1, n) - 1


def build_relation_matrix(equation_rows, k: int, n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """The relation matrix as a tuple of rows: the equation rows, then k membership rows.

    The membership rows are always appended; callers never supply them.
    """
    if k < 1 or n < 1:
        raise ValueError("need at least one unknown and extension degree >= 1")
    rows = []
    for row in equation_rows:
        row = tuple(p if isinstance(p, IntPoly) else IntPoly.constant(p) for p in row)
        if len(row) != k:
            raise ValueError(f"equation row has length {len(row)}, expected {k}")
        rows.append(row)
    mem = _membership_poly(n)
    zero = IntPoly()
    for i in range(k):
        rows.append(tuple(mem if j == i else zero for j in range(k)))
    return tuple(rows)


def _leading_minors(rows, k: int) -> dict[tuple[int, ...], IntPoly]:
    """det(A[S, columns 0..k-1]) for every k-row subset S where it is nonzero.

    Level j holds the j x j minors on the first j columns.  Each one at level
    j+1 is the Laplace expansion along column j,
    det(A[S, :j+1]) = sum over pos, i in S of
    (-1)^(pos+j) * A[i][j] * det(A[S - {i}, :j]),
    accumulated here by pushing every nonzero j-minor into the subsets that
    add one row with a nonzero entry in column j.  Only nonzero minors are
    stored, so a sparse membership row adds a single term per subset.
    """
    level = {(): IntPoly.constant(1)}
    for j in range(k):
        nxt: dict[tuple[int, ...], IntPoly] = {}
        for subset, minor in level.items():
            for i, row in enumerate(rows):
                if not row[j] or i in subset:
                    continue
                pos = bisect_left(subset, i)
                key = subset[:pos] + (i,) + subset[pos:]
                term = -row[j] * minor if (pos + j) % 2 else row[j] * minor
                nxt[key] = nxt[key] + term if key in nxt else term
        level = {s: p for s, p in nxt.items() if p}
    return level


def maximal_minors(rows) -> list[IntPoly]:
    """Determinants of every k-row subset, in lexicographic subset order.

    k is the width of the rows.  Zero polynomials are kept so the list
    always has C(len(rows), k) entries.  More than WORK_BUDGET of them
    raise ScaleCapError before any work.
    """
    if not rows or len(rows) < len(rows[0]):
        raise ValueError("fewer rows than columns")
    nrows, k = len(rows), len(rows[0])
    for number, row in enumerate(rows):
        if len(row) != k:
            raise ValueError(f"row {number} has width {len(row)}, expected {k}")
    total = comb(nrows, k)
    if total > WORK_BUDGET:
        raise ScaleCapError(
            f"C({nrows}, {k}) = {total} maximal minors exceed WORK_BUDGET = {WORK_BUDGET}"
        )
    minors = _leading_minors(rows, k)
    zero = IntPoly()
    return [minors.get(subset, zero) for subset in combinations(range(nrows), k)]


def evaluate_matrix(rows, q0: int) -> list[list[int]]:
    """Entrywise evaluation at q0, giving a plain integer matrix."""
    if _int(q0, "q") <= 1:
        raise ValueError("degenerate modulus: q^n - 1 <= 0 for q <= 1")
    return [[p(q0) for p in row] for row in rows]
