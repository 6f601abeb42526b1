"""Independent verification oracles over explicit finite fields.

Two structurally different ground truths for solution counts: literal
enumeration of field-element tuples in an explicitly constructed GF(p^n),
and enumeration of exponent tuples solving the corresponding linear
congruences mod q^n - 1.  Neither uses the relation matrix, its minors,
the gcd synthesis or the Smith normal form.  What they share with the
symbolic pipeline: both read the parsed system and evaluate its exponents
with ``IntPoly``, and the irreducibility test behind ``make_field`` runs on
``_gfpoly``'s GF(p) arithmetic (``gf_divmod``, ``gf_gcd``, ``gf_pow_mod``),
which ``porc``'s modular root finding also uses.  numpy is imported only
when the exponent oracle runs, so subcommands without it never load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from ._gfpoly import gf_is_irreducible
from .errors import ScaleCapError
from .system import EQ, MonomialSystem

#: Default cap on enumerated tuples.
DEFAULT_MAX_TUPLES = 10**6

#: Cap on the field order itself.
MAX_FIELD_ORDER = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q as p^e with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    d = 2
    while d * d <= q:
        if q % d == 0:
            p = d
            break
        d += 1
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
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
        # t^(n + i) reduced mod the modulus, for folding products back down
        tails = [tuple((-c) % p for c in modulus[:n])]
        for _ in range(max(n - 2, 0)):
            prev = tails[-1]
            carry = prev[n - 1]
            shifted = [0] + list(prev[: n - 1])
            if carry:
                for j in range(n):
                    shifted[j] = (shifted[j] + carry * tails[0][j]) % p
            tails.append(tuple(shifted))
        self._tails = tails

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        p, n = self.p, self.n
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:n]]
        for i in range(n - 1):
            carry = conv[n + i] % p
            if carry:
                tail = self._tails[i]
                for j in range(n):
                    out[j] = (out[j] + carry * tail[j]) % p
        return tuple(out)

    def pow(self, a, e: int):
        """a^e for nonzero a, with e reduced into the multiplicative group."""
        if a == self.zero:
            raise ValueError("zero has no well-defined group power")
        e %= self.order - 1
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a):
        return self.pow(a, self.order - 2)

    def elements(self):
        for coeffs in product(range(self.p), repeat=self.n):
            yield coeffs

    def nonzero_elements(self):
        return [el for el in self.elements() if el != self.zero]


def make_field(p: int, n: int, *, max_order: int = MAX_FIELD_ORDER) -> FieldContext:
    """GF(p^n) with the first irreducible modulus in base-p counting order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be at least 1")
    if p**n > max_order:
        raise ScaleCapError(f"field order {p ** n} exceeds the cap {max_order}")
    for lower in range(p**n):
        coeffs = []
        m = lower
        for _ in range(n):
            coeffs.append(m % p)
            m //= p
        candidate = tuple(coeffs) + (1,)
        if gf_is_irreducible(list(candidate), p):
            return FieldContext(p, n, candidate)
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def brute_force_count(
    system: MonomialSystem, q0: int, *, max_tuples: int = DEFAULT_MAX_TUPLES
) -> int:
    """Count solutions by enumerating tuples of nonzero field elements.

    q0 must be a prime power p^e; the field GF(q0^n) is built as
    GF(p^(e*n)) and exponent polynomials are evaluated at q0.
    """
    p, e = split_prime_power(q0)
    field = make_field(p, e * system.n)
    group = field.order - 1
    if group**system.k > max_tuples:
        raise ScaleCapError(
            f"{group}^{system.k} field tuples exceed the cap {max_tuples}"
        )
    elements = field.nonzero_elements()
    # one power table per (relation, unknown): table[i] = element_i ^ exponent
    checks = []
    for rel in system.relations:
        tables = []
        for poly in rel.exponents:
            beta = poly(q0) % group
            tables.append([field.pow(el, beta) for el in elements])
        checks.append((rel.kind == EQ, tables))
    count = 0
    one = field.one
    for combo in product(range(len(elements)), repeat=system.k):
        ok = True
        for want_eq, tables in checks:
            acc = one
            for var, idx in enumerate(combo):
                acc = field.mul(acc, tables[var][idx])
            if (acc == one) != want_eq:
                ok = False
                break
        if ok:
            count += 1
    return count


def exponent_space_count(
    system: MonomialSystem, q0: int, *, max_tuples: int = DEFAULT_MAX_TUPLES
) -> int:
    """Count exponent tuples in Z_(q0^n - 1)^k solving the linear congruences.

    Equations demand sum(beta_i * m_i) = 0 mod q0^n - 1, inequations demand
    the opposite; membership is automatic.  Works for any integer q0 >= 2.
    """
    if q0 < 2:
        raise ValueError("q must be at least 2")
    modulus = q0**system.n - 1
    if modulus**system.k > max_tuples:
        raise ScaleCapError(
            f"{modulus}^{system.k} exponent tuples exceed the cap {max_tuples}"
        )
    import numpy as np

    grid = _exponent_grid(modulus, system.k)
    ok = np.ones(grid.shape[1], dtype=bool)
    for rel in system.relations:
        row = np.array([poly(q0) % modulus for poly in rel.exponents], dtype=np.int64)
        residue = (row @ grid) % modulus
        ok &= (residue == 0) if rel.kind == EQ else (residue != 0)
    return int(ok.sum())


@lru_cache(maxsize=8)
def _exponent_grid(modulus: int, k: int) -> np.ndarray:
    # all of Z_modulus^k as a (k, modulus^k) int64 matrix
    import numpy as np

    return np.indices((modulus,) * k, dtype=np.int64).reshape(k, -1)
