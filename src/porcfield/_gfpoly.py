"""Polynomial helpers over GF(p), p prime, and the package's integer factorizer.

Polynomials are plain lists of ints in [0, p), ascending by degree, with no
trailing zeros ([] is the zero polynomial).  Only the small-degree routines
needed elsewhere in the package live here: multiplication, Euclid, modular
powering, root extraction and Ben-Or's irreducibility test.  ``porc``'s
modular root finding runs on them.  The field oracle uses only the
irreducibility test, to pick its modulus; its GF(p^n) product is
``FieldContext.mul``.

``factorize`` is the one integer factorization in the package: trial
division, the Baillie-PSW primality test and Pollard-Brent rho under
``FACTOR_STEP_CAP``.  It factors the modulus of ``porc``'s gcd fold, once
``_shrink_modulus`` has cut it down, and serves ``split_prime_power``,
``make_field``'s primality check and the field oracle's generator test.
"""

from itertools import compress
from math import gcd, isqrt

from .errors import ConsistencyError, ScaleCapError


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
    """Distinct roots of the nonzero polynomial a over GF(p), sorted.

    Callers divide out the content first, so a zero polynomial here is an
    internal invariant failure.
    """
    if not a:
        raise ConsistencyError("zero polynomial has every residue as a root")
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


#: Most Pollard-Brent rho steps one ``factorize`` call may take, summed over its
#: composite cofactors; a prime factor near P costs about sqrt(P) steps.
FACTOR_STEP_CAP = 1_000_000


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for d in range(2, isqrt(n) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, n, d)))
    return tuple(compress(range(n), flags))


# trial divisors; a cofactor with none of them as a factor is prime below 997^2
_SMALL_PRIMES = _primes_below(1000)


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for n >= 1, in ascending primes; {} for n < 2.

    Trial division by the primes below 1000, then Pollard-Brent rho with
    the fixed polynomials x^2 + c (c = 1, 2, ...) on each composite cofactor,
    whose primality is decided by the Baillie-PSW test (exact below 2^64).
    Deterministic: the same n always takes the same steps.  Raises
    ScaleCapError rather than take more than FACTOR_STEP_CAP rho steps.
    """
    factors: dict[int, int] = {}
    for d in _SMALL_PRIMES:
        if d * d > n:
            break
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    steps = 0
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, mult = stack.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + mult
            continue
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, mult * k))
            continue
        d, steps = _brent_split(m, steps)
        stack += [(d, mult), (m // d, mult)]
    return dict(sorted(factors.items()))


def _is_prime(n: int) -> bool:
    """Baillie-PSW for n >= 2 with no prime factor below 1000."""
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    return _strong_prp_base2(n) and _strong_lucas_prp(n)


def _strong_prp_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n not a square."""
    if isqrt(n) ** 2 == n:
        return False  # no D below would have Jacobi symbol -1
    D = 5
    while _jacobi(D, n) != -1:
        if gcd(D, n) > 1:
            return False
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # U_k, V_k and Q^k mod n for the prefixes k of d's binary expansion
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, k) with r^k == n and k > 1 if there are any, else (n, 1).

    n has no prime factor below 1000, so no root of order k with
    997^k > n can exist.
    """
    k = 2
    while _SMALL_PRIMES[-1] ** k <= n:
        r = _iroot(n, k)
        if r**k == n:
            return r, k
        k += 1
    return n, 1


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1 by integer Newton iteration."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _brent_split(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the composite n, and the step count after finding it.

    Brent's cycle finding on x -> x^2 + c mod n from x = 2, with the
    differences multiplied in batches of 128 before each gcd; a batch that
    overshoots to gcd n is replayed one step at a time, and c = 1, 2, ...
    is tried until a proper divisor appears.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            steps = _charge(steps, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                steps = _charge(steps, batch, n)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                steps = _charge(steps, 1, n)
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps


def _charge(steps: int, more: int, n: int) -> int:
    if steps + more > FACTOR_STEP_CAP:
        raise ScaleCapError(
            f"factoring a {len(str(n))}-digit cofactor exceeds "
            f"FACTOR_STEP_CAP = {FACTOR_STEP_CAP} rho steps"
        )
    return steps + more


def gf_is_irreducible(a: list[int], p: int) -> bool:
    """Ben-Or's irreducibility test for a monic polynomial a over GF(p) (Ben-Or 1981).

    A reducible a of degree n has an irreducible factor of some degree i <= n/2,
    which divides x^(p^i) - x, the product of the monic irreducibles of degree dividing i.
    """
    n = len(a) - 1
    if n <= 0:
        return False
    u = [0, 1]
    for _ in range(n // 2):
        u = gf_pow_mod(u, p, a, p)
        if gf_gcd(gf_sub(u, [0, 1], p), a, p) != [1]:
            return False
    return True
