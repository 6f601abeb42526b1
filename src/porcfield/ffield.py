"""Independent verification oracles over explicit finite fields.

Two structurally different ground truths for solution counts: literal
enumeration of field-element tuples in an explicitly constructed GF(p^n),
and a meet-in-the-middle count of the exponent tuples solving the
corresponding linear congruences mod q^n - 1.  Neither oracle uses the
relation matrix, its minors, the gcd synthesis or the Smith normal form;
both read the parsed system and evaluate its exponents with ``IntPoly``.

The field oracle multiplies with ``FieldContext.mul``: the schoolbook
product of two coefficient tuples, its high coefficients folded back with
the rows t^(n+j) mod the modulus and reduced mod p once; ``pow`` is square
and multiply on it.  The generator g is the first element whose order is
the group order, and the cycle of g^beta is walked once, one literal
multiplication per element, and read modulo its length.  One unknown per
tuple is then resolved by a lookup in the longest cycle, and the rest of
the relations are checked on the elements that lookup returns.  From
``_gfpoly`` it takes only ``gf_is_irreducible``, which picks the modulus,
and ``factorize``, for primality and the prime factors of the group order.
``count_at`` and the exponent oracle use none of this arithmetic.
"""

from collections import Counter, defaultdict
from itertools import islice, product
from math import gcd
from operator import ne

from ._gfpoly import factorize, gf_is_irreducible
from .errors import ConsistencyError, ScaleCapError
from .polynomial import _int
from .system import MonomialSystem

#: Cap on the tuples either oracle enumerates, and on the order of a field built.
MAX_TUPLES = 10**6


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^e with p prime, or raise ValueError."""
    factors = factorize(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    [(p, e)] = factors.items()
    return p, e


class FieldContext:
    """Arithmetic in GF(p^n); elements are length-n coefficient tuples mod p."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.modulus = modulus  # monic, length n + 1
        self.order = p**n
        self.zero = (0,) * n
        self.one = tuple(1 if i == 0 else 0 for i in range(n))
        # t^(n+j) mod modulus for j = 0..n-2, the rows a product's high
        # coefficients fold back with: t^n = -(m_0 + ... + m_(n-1) t^(n-1))
        row = [-c % p for c in modulus[:n]]
        self._folds = []
        for _ in range(n - 1):
            self._folds.append(row)
            top = row[-1]
            row = [(low - top * c) % p for low, c in zip([0] + row[:-1], modulus)]

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        """The schoolbook product, folded back below t^n and reduced mod p once."""
        n = self.n
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        low = prod[:n]
        for c, row in zip(prod[n:], self._folds):
            if c:
                for i, r in enumerate(row):
                    low[i] += c * r
        p = self.p
        return tuple([c % p for c in low])

    def pow(self, a, e: int):
        """a^e for nonzero a, with e reduced into the multiplicative group."""
        if a == self.zero:
            raise ValueError("zero has no well-defined group power")
        e %= self.order - 1
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def elements(self):
        for coeffs in product(range(self.p), repeat=self.n):
            yield coeffs


def make_field(p: int, n: int) -> FieldContext:
    """GF(p^n) with the first irreducible modulus in base-p counting order."""
    if factorize(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    if p**n > MAX_TUPLES:
        raise ScaleCapError(f"field order {p ** n} exceeds MAX_TUPLES = {MAX_TUPLES}")
    for lower in range(p**n):
        coeffs = []
        m = lower
        for _ in range(n):
            coeffs.append(m % p)
            m //= p
        candidate = tuple(coeffs) + (1,)
        if gf_is_irreducible(list(candidate), p):
            return FieldContext(p, n, candidate)
    raise ConsistencyError(f"no irreducible polynomial of degree {n} over GF({p}) found")


def _position(p: int, a) -> int:
    """a's index in ``FieldContext.elements()``: its coefficients as base-p digits."""
    index = 0
    for c in a:
        index = index * p + c
    return index


def _discrete_logs(field: FieldContext) -> tuple[tuple[int, ...], list]:
    """(g, logs) for the first generator g of the multiplicative group.

    logs[i] is the log to the base g of the element at index i of
    ``field.elements()`` (``_position``), and None for zero.  A candidate c
    generates the group of order N = p^n - 1 exactly when c^(N/r) != 1 for
    every prime r dividing N (Lidl and Niederreiter, *Finite Fields*);
    candidates that fail are skipped.  The orbit of the first one left is
    then walked from one by literal multiplication up to its first repeat.
    A generator's orbit holds all N nonzero elements; a reducible modulus
    can also give an orbit of that length through zero.
    """
    group = field.order - 1
    cofactors = [group // r for r in factorize(group)]
    for candidate in islice(field.elements(), 1, None):  # elements() yields zero first
        if all(field.pow(candidate, c) != field.one for c in cofactors):
            logs = [None] * field.order
            x, log = field.one, 0
            while logs[i := _position(field.p, x)] is None:
                logs[i] = log
                x, log = field.mul(x, candidate), log + 1
            if log == group and logs[0] is None:
                return candidate, logs
            break
    raise ConsistencyError(
        f"no generator of the multiplicative group of GF({field.p}^{field.n}) "
        f"under the modulus {field.modulus}"
    )


def _power_cycle(field: FieldContext, logs: list, g, beta: int) -> list[int]:
    """[log(h^i) for i in range(L)], the cycle of h = g^beta of length L.

    h is one literal ``field.pow``; each further element of its cycle is one
    literal ``field.mul`` by h, until the walk is back at one.  Since
    (g^i)^beta = h^i, entry i mod L is the log of (g^i)^beta.  A walk that
    leaves the logs, does not close within N = p^n - 1 steps or closes on a
    length that does not divide N is a faulty product.
    """
    group = field.order - 1
    h = field.pow(g, beta)
    cycle = []
    y = field.one
    for _ in range(group):
        log = logs[_position(field.p, y)]
        if log is None:
            raise ConsistencyError(f"the walk of g^{beta} reached {y}, which has no log")
        cycle.append(log)
        y = field.mul(y, h)
        if y == field.one:
            break
    else:
        raise ConsistencyError(f"the walk of g^{beta} did not close within {group} steps")
    if group % len(cycle):
        raise ConsistencyError(
            f"the walk of g^{beta} closed after {len(cycle)} steps, "
            f"which does not divide {group}"
        )
    return cycle


def _log_sum(cycles, combo) -> int:
    """The sum of the logs the cycles give the elements at the positions in combo."""
    return sum([cycle[x % len(cycle)] for cycle, x in zip(cycles, combo)])


def brute_force_count(system: MonomialSystem, q0: int) -> int:
    """Count solutions by enumerating tuples of nonzero field elements.

    q0 must be a prime power p^e; the field GF(q0^n) is built as
    GF(p^(e*n)) and exponent polynomials are evaluated at q0.  Element i of
    each unknown is g^i for the generator g that ``_discrete_logs`` finds,
    and its power to beta has the log at i mod L in the cycle of g^beta,
    L long, that ``_power_cycle`` walks once per distinct beta.  A product
    of powers is 1 exactly when the sum of their logs is 0 mod
    N = q0^n - 1 (the multiplicative group is cyclic).

    One unknown is resolved by lookup: of all (equation, unknown) pairs,
    the one with the longest cycle leaves the fewest candidates, since
    each of its logs recurs N/L times.  Its cycle is indexed from log to
    cycle position, the other k - 1 unknowns are enumerated, and the
    remaining relations are checked only at every L-th position from the
    one the index gives.  Without an equation the trivial one, 1 = 1,
    admits every position of the last unknown.  ``MAX_TUPLES`` is checked
    before q0 is factored, and a system without relations builds no field.
    """
    group = _int(q0, "q") ** system.n - 1
    if group**system.k > MAX_TUPLES:
        raise ScaleCapError(
            f"{group}^{system.k} field tuples exceed MAX_TUPLES = {MAX_TUPLES}"
        )
    k = system.k
    p, e = split_prime_power(q0)
    checks = []  # (want_eq, one power cycle per unknown) per relation
    if system.relations:  # with no relation, nothing reads the field
        field = make_field(p, e * system.n)
        g, logs = _discrete_logs(field)
        cycles = {}  # beta -> its power cycle, walked once
        for want_eq, rels in ((True, system.equations), (False, system.inequations)):
            for rel in rels:
                betas = [poly(q0) % group for poly in rel.exponents]
                for beta in betas:
                    if beta not in cycles:
                        cycles[beta] = _power_cycle(field, logs, g, beta)
                checks.append((want_eq, [cycles[beta] for beta in betas]))
    # (minus the cycle length, equation, unknown): the longest cycle prunes most
    pairs = [
        (-len(row[j]), r, j)
        for r, (want_eq, row) in enumerate(checks)
        if want_eq
        for j in range(k)
    ]
    if pairs:
        _, r, j = min(pairs)
        pivot = checks.pop(r)[1]
    else:  # the trivial equation 1 = 1: every log is 0
        j, pivot = k - 1, [[0]] * k
    step = len(pivot[j])
    where = {log: x for x, log in enumerate(pivot[j])}
    others = [i for i in range(k) if i != j]
    pivot_others = [pivot[i] for i in others]
    rest = [(want_eq, [row[i] for i in others], row[j]) for want_eq, row in checks]
    count = 0
    for combo in product(range(group), repeat=k - 1):
        start = where.get(-_log_sum(pivot_others, combo) % group)
        if start is None:
            continue
        partial = [(want_eq, _log_sum(row, combo), last) for want_eq, row, last in rest]
        for x in range(start, group, step):
            for want_eq, total, last in partial:
                if ((total + last[x % len(last)]) % group == 0) != want_eq:
                    break
            else:
                count += 1
    return count


def exponent_space_count(system: MonomialSystem, q0: int) -> int:
    """Count exponent tuples in Z_(q0^n - 1)^k solving the linear congruences.

    Equations demand sum(beta_i * m_i) = 0 mod q0^n - 1, inequations demand
    the opposite; membership is automatic.  Works for any integer q0 >= 2.

    Meet in the middle (Horowitz and Sahni 1974): one histogram of residue
    vectors, one residue per relation, over the first k//2 unknowns and one
    over the rest, each folded one unknown at a time.  A pair of vectors
    solves the system when their sum is zero in every equation coordinate
    and nonzero in every inequation coordinate.  ``MAX_TUPLES`` still counts
    the (q0^n - 1)^k tuples this covers, not histogram entries.
    """
    if _int(q0, "q") < 2:
        raise ValueError("q must be at least 2")
    modulus = q0**system.n - 1
    if modulus**system.k > MAX_TUPLES:
        raise ScaleCapError(
            f"{modulus}^{system.k} exponent tuples exceed MAX_TUPLES = {MAX_TUPLES}"
        )
    # equations first, so each residue vector starts with its equation coordinates
    n_eq = len(system.equations)
    rows = [[poly(q0) % modulus for poly in rel.exponents] for rel in system.relations]

    def step(i):
        # residue vectors of m * v over m in Z_modulus, for unknown i's column v:
        # its multiples form a cyclic group of order modulus / d, d = gcd(modulus,
        # v...), and each of them is reached d times
        if not rows:
            return {(): modulus}
        column = [row[i] for row in rows]
        reps = gcd(modulus, *column)
        multiples = [[m * x % modulus for m in range(modulus // reps)] for x in column]
        return dict.fromkeys(zip(*multiples), reps)

    def histogram(unknowns):
        if not unknowns:
            return {(0,) * len(rows): 1}
        hist = step(unknowns[0])
        for i in unknowns[1:]:
            folded = Counter()
            for b, cb in step(i).items():
                for a, ca in hist.items():
                    folded[tuple([(x + y) % modulus for x, y in zip(a, b)])] += ca * cb
            hist = folded
        return hist

    half = system.k // 2
    buckets = defaultdict(list)
    for b, cb in histogram(range(half, system.k)).items():
        buckets[b[:n_eq]].append((b[n_eq:], cb))
    count = 0
    for a, ca in histogram(range(half)).items():
        avoid = [-x % modulus for x in a[n_eq:]]
        for tail, cb in buckets.get(tuple([-x % modulus for x in a[:n_eq]]), ()):
            if all(map(ne, tail, avoid)):
                count += ca * cb
    return count
