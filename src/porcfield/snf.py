"""Smith normal form of integer matrices via exact gcd pivoting.

Matrices are plain sequences of rows of Python ints, so there is no
precision limit.  Only the elementary-divisor chain is computed; the
unimodular transforms are not tracked.
"""

from __future__ import annotations

from .errors import ConsistencyError


def _validate(rows) -> list[list[int]]:
    mat = [list(map(int, r)) for r in rows]
    if not mat or not mat[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise ValueError("ragged matrix")
    return mat


def smith_normal_form(rows) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of the matrix, one per column.

    Divisors are reported nonnegative; if the rank is smaller than the
    number of columns the chain is padded with trailing zeros.
    """
    a = _validate(rows)
    r, k = len(a), len(a[0])
    divisors: list[int] = []
    for t in range(min(r, k)):
        while True:
            # smallest nonzero entry of the trailing submatrix becomes the pivot
            best = None
            for i in range(t, r):
                for j in range(t, k):
                    v = a[i][j]
                    if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                a[bi], a[t] = a[t], a[bi]
            if bj != t:
                for row in a:
                    row[bj], row[t] = row[t], row[bj]
            pivot = a[t][t]
            # clear the pivot column; a nonzero remainder becomes the new, smaller pivot
            dirty = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[i], a[t] = a[t], a[i]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, k):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[j], row[t] = row[t], row[j]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide every remaining entry to keep the chain
            fixup = None
            for i in range(t + 1, r):
                for j in range(t + 1, k):
                    if a[i][j] % pivot:
                        fixup = i
                        break
                if fixup is not None:
                    break
            if fixup is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[fixup])]
        if best is None:
            break
        divisors.append(abs(a[t][t]))
    divisors += [0] * (k - len(divisors))
    for i in range(k - 1):
        if divisors[i + 1] and divisors[i + 1] % max(divisors[i], 1):
            raise ConsistencyError("divisor chain violated")  # pragma: no cover
    return divisors
