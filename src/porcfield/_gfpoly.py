"""Polynomial helpers over GF(p), p prime.

Polynomials are plain lists of ints in [0, p), ascending by degree, with no
trailing zeros ([] is the zero polynomial).  Only the small-degree routines
needed elsewhere in the package live here: multiplication, Euclid, modular
powering, root extraction, an irreducibility test, and the trial division
that serves it.  ``porc``'s modular root finding runs on them, and so do the
field oracle's GF(p^n) multiplication and powering (``gf_mul``,
``gf_divmod``, ``gf_pow_mod``) and its primality checks (``trial_factor``).
"""

from __future__ import annotations


def gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_from_coeffs(coeffs, p: int) -> list[int]:
    return gf_trim([c % p for c in coeffs])


def gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return gf_trim(out)


def gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return gf_trim(out)


def gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    q = [0] * max(len(rem) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    for i in range(len(rem) - len(b), -1, -1):
        c = (rem[i + len(b) - 1] * inv) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % p
    return gf_trim(q), gf_trim(rem)


def gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in GF(p)[x]."""
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def gf_pow_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = gf_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = gf_divmod(gf_mul(result, base, p), mod, p)[1]
        base = gf_divmod(gf_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def gf_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def gf_roots(a: list[int], p: int) -> list[int]:
    """Distinct roots of the nonzero polynomial a over GF(p), sorted."""
    if not a:
        raise ValueError("zero polynomial has every residue as a root")
    if p <= 64 or len(a) - 1 >= p:
        return [x for x in range(p) if gf_eval(a, x, p) == 0]
    # keep only distinct linear factors: gcd(x^p - x, a)
    xp = gf_pow_mod([0, 1], p, a, p)
    lin = gf_gcd(gf_sub(xp, [0, 1], p), a, p)
    roots: list[int] = []
    stack = [lin]
    shift = 0
    while stack:
        f = stack.pop()
        if len(f) - 1 <= 0:
            continue
        if len(f) - 1 == 1:
            roots.append((-f[0] * pow(f[1], -1, p)) % p)
            continue
        # split the product of distinct linear factors with quadratic characters
        # of deterministic shifts; each shift separates some pair of roots
        while True:
            shift += 1
            probe = gf_pow_mod([shift, 1], (p - 1) // 2, f, p)
            d = gf_gcd(gf_sub(probe, [1], p), f, p)
            if 0 < len(d) - 1 < len(f) - 1:
                stack.append(d)
                stack.append(gf_divmod(f, d, p)[0])
                break
    return sorted(roots)


def trial_factor(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1 by trial division; {} for n < 2."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = 1
    return factors


def gf_is_irreducible(a: list[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    n = len(a) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    # x^(p^j) mod a, computed by iterating the Frobenius
    def frob_iter(times: int) -> list[int]:
        u = [0, 1]
        for _ in range(times):
            u = gf_pow_mod(u, p, a, p)
        return u

    for r in trial_factor(n):
        u = frob_iter(n // r)
        if gf_gcd(gf_sub(u, [0, 1], p), a, p) != [1]:
            return False
    return frob_iter(n) == gf_divmod([0, 1], a, p)[1]
