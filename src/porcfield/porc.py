"""Closed-form synthesis of gcd-of-polynomial-values functions.

Given integer polynomials f_1, ..., f_s, the integer-valued function
h(x) = gcd(f_1(x), ..., f_s(x)) factors as h(x) = d(x) * |f(x)| where f is
the polynomial gcd of the family and d is periodic, expressible as

    d(x) = alpha + sum_i alpha_i * gcd(x - n_i, m_i)

with rational coefficients, moduli m_i > 1 and shifts 0 < n_i < m_i.  This
module computes that expression exactly.

The construction works prime by prime over the Bezout denominator modulus
(for random families it is resultant-sized, far beyond any per-residue
loop): the solution classes of h_i(x) = 0 mod p^j are found by root
extraction and Hensel-style lifting, each contributing a difference
gcd(x-c, p^j) - gcd(x-c, p^(j-1)), and the per-prime pieces are multiplied
out via CRT.  Only the prime factorization of the modulus enters the
result, so the closed form does not depend on the order of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from ._gfpoly import gf_from_coeffs, gf_gcd, gf_roots
from .errors import ConsistencyError, ScaleCapError
from .polynomial import IntPoly, content_and_primitive, bezout_cofactors

#: Not read by the package; only the benchmark's route counter reads it, and with
#: 1 it counts every family with a Bezout modulus above 1 as factored.
LITERAL_MODULUS_CAP = 1
#: Largest modulus for which a shift of 0 is rewritten via the constant-sum identity.
ZERO_SHIFT_CAP = 10_000
#: Caps on intermediate sizes in the factored construction.
CLASS_BUDGET = 20_000
TERM_BUDGET = 200_000
CHILD_ENUM_CAP = 3_000


@dataclass(frozen=True)
class PorcExpression:
    """alpha + sum of coeff * gcd(x - shift, modulus) terms."""

    alpha: Fraction
    terms: tuple[tuple[Fraction, int, int], ...] = ()

    def __call__(self, x: int) -> Fraction:
        return porc_eval(self, x)

    def render(self, var: str = "q") -> str:
        parts: list[tuple[bool, str]] = []  # (negative, body)
        if self.alpha or not self.terms:
            parts.append((self.alpha < 0, _frac_str(abs(self.alpha))))
        for coeff, n, m in self.terms:
            body = f"gcd({var}-{n},{m})"
            mag = abs(coeff)
            if mag != 1:
                body = f"{_frac_str(mag)}*{body}"
            parts.append((coeff < 0, body))
        out = ""
        for i, (neg, body) in enumerate(parts):
            if i == 0:
                out = f"-{body}" if neg else body
            else:
                out += f"-{body}" if neg else f"+{body}"
        return out

    def __str__(self):
        return self.render()


PORC_ONE = PorcExpression(Fraction(1))


@dataclass(frozen=True)
class GcdPorcFunction:
    """The pair (d, f) with residue modulus m: values are d(x) * |f(x)|."""

    f: IntPoly
    d: PorcExpression
    m: int

    def value_at(self, x: int) -> int:
        """gcd(f_1(x), ..., f_s(x)) reconstructed from the closed form."""
        v = porc_eval(self.d, x) * abs(self.f(x))
        if v.denominator != 1:
            raise ConsistencyError("non-integral gcd value")
        return v.numerator

    def render(self, var: str = "q") -> str:
        f_str = self.f.render(var)
        if self.d == PORC_ONE:
            return f_str
        d_str = self.d.render(var)
        d_compound = (self.alpha_nonzero and bool(self.d.terms)) or len(self.d.terms) > 1
        if self.f == IntPoly((1,)):
            return f"({d_str})" if d_compound else d_str
        if d_compound:
            d_str = f"({d_str})"
        if sum(1 for c in self.f.coeffs if c) > 1 or abs(self.f.leading) != 1:
            f_str = f"({f_str})"
        return f"{d_str}*{f_str}"

    @property
    def alpha_nonzero(self) -> bool:
        return bool(self.d.alpha)

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class IndicatorScheme:
    """Signed gcd(x, m/d_T) combination vanishing off the class 0 mod m."""

    m: int
    primes: tuple[int, ...]
    terms: tuple[tuple[int, int], ...]  # (sign, modulus), one per subset of primes
    c: int  # value at multiples of m, equal to Euler's totient of m


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _factorize(n: int) -> dict[int, int]:
    from sympy import factorint

    return {int(p): int(e) for p, e in factorint(n).items()}


def build_indicator(m: int) -> IndicatorScheme:
    """Subset-sum scheme for the indicator of 0 mod m, over all 2^|S| subsets."""
    if m <= 1:
        raise ValueError("indicator modulus must exceed 1")
    primes = tuple(sorted(_factorize(m)))
    terms = []
    for mask in range(1 << len(primes)):
        d_t = prod(p for i, p in enumerate(primes) if mask >> i & 1)
        sign = -1 if bin(mask).count("1") % 2 else 1
        terms.append((sign, m // d_t))
    c = sum(sign * mod for sign, mod in terms)
    return IndicatorScheme(m=m, primes=primes, terms=tuple(terms), c=c)


def indicator_eval(scheme: IndicatorScheme, x: int) -> int:
    """Value of the signed gcd sum: 0 off the class 0 mod m, c on it."""
    return sum(sign * gcd(x, mod) for sign, mod in scheme.terms)


def porc_eval(e: PorcExpression, x: int) -> Fraction:
    """Exact value of the expression; gcd(0, m) is taken as m."""
    acc = e.alpha
    for coeff, n, m in e.terms:
        acc += coeff * gcd(x - n, m)
    return acc


def _pillai(m: int) -> int:
    # sum of gcd(b, m) over one full residue system
    return sum(gcd(b, m) for b in range(m))


def _canonicalize(alpha: Fraction, raw_terms) -> PorcExpression:
    merged: dict[tuple[int, int], Fraction] = {}
    queue = [(Fraction(c), n, m) for c, n, m in raw_terms]
    while queue:
        coeff, n, m = queue.pop()
        if not coeff:
            continue
        if m == 1:
            alpha += coeff
            continue
        n %= m
        if n == 0:
            # gcd(x, m) = pillai(m) - sum over the other shifted copies
            if m > ZERO_SHIFT_CAP:
                raise ScaleCapError(
                    f"zero shift with modulus {m} exceeds ZERO_SHIFT_CAP = {ZERO_SHIFT_CAP}"
                )
            alpha += coeff * _pillai(m)
            for b in range(1, m):
                queue.append((-coeff, b, m))
            continue
        key = (n, m)
        merged[key] = merged.get(key, Fraction(0)) + coeff
    terms = tuple(
        (coeff, n, m)
        for (n, m), coeff in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        if coeff
    )
    return PorcExpression(alpha=alpha, terms=terms)


def porc_canonicalize(e: PorcExpression) -> PorcExpression:
    """Reduce shifts into (0, m_i), clear zero shifts, merge and drop terms."""
    return _canonicalize(e.alpha, e.terms)


def check_porc_invariants(e: PorcExpression) -> None:
    """Raise unless the expression is in canonical form."""
    seen = set()
    for coeff, n, m in e.terms:
        if m <= 1:
            raise ConsistencyError(f"modulus {m} must exceed 1")
        if not 0 < n < m:
            raise ConsistencyError(f"shift {n} outside (0, {m})")
        if not coeff:
            raise ConsistencyError("zero coefficient retained")
        if (n, m) in seen:
            raise ConsistencyError(f"duplicate term ({n}, {m})")
        seen.add((n, m))


def synthesize_gcd_function(fs) -> GcdPorcFunction:
    """Closed PORC form of x -> gcd(f_1(x), ..., f_s(x)).

    Needs at least one nonzero member.  The result satisfies
    value_at(x) == gcd of the family values for every x with f(x) != 0.
    """
    f, _, m0 = bezout_cofactors(fs)
    if m0 == 1:
        return GcdPorcFunction(f=f, d=PORC_ONE, m=1)
    return _synthesize_factored(fs, f, m0)


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    if m1 == 1:
        return r2
    if m2 == 1:
        return r1
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


def _solution_levels(hs, p: int, e: int) -> list[list[int]]:
    """Residues mod p^j (j = 1, 2, ...) where every h_i vanishes mod p^j.

    Returns one sorted residue list per level, stopping at the first empty
    level or at level e.  Level j+1 is lifted from level j: on a residue c
    with all h_i(c) = 0 mod p^j, the children c + t*p^j that survive are cut
    out by the linear congruences h_i(c) + t*p^j*h_i'(c) = 0 mod p^(j+1)
    (exact for j >= 1 since the quadratic correction has valuation 2j).
    """
    g = []
    for h in hs:
        g = gf_gcd(g, gf_from_coeffs(h.coeffs, p), p)
    level = gf_roots(g, p)
    if not level:
        return []
    levels = [sorted(level)]
    ds = [h.derivative() for h in hs]
    for j in range(2, e + 1):
        pj1 = p ** (j - 1)
        cur: list[int] = []
        for c in levels[-1]:
            t_fixed: int | None = None
            dead = False
            for h, dh in zip(hs, ds):
                a_i = (h(c) // pj1) % p
                b_i = dh(c) % p
                if b_i == 0:
                    if a_i == 0:
                        continue
                    dead = True
                    break
                t0 = (-a_i * pow(b_i, -1, p)) % p
                if t_fixed is None:
                    t_fixed = t0
                elif t_fixed != t0:
                    dead = True
                    break
            if dead:
                continue
            if t_fixed is None:
                if p > CHILD_ENUM_CAP:
                    raise ScaleCapError(
                        f"singular solution lift at prime {p} exceeds "
                        f"CHILD_ENUM_CAP = {CHILD_ENUM_CAP}"
                    )
                cur.extend(c + t * pj1 for t in range(p))
            else:
                cur.append(c + t_fixed * pj1)
        if len(cur) > CLASS_BUDGET:
            raise ScaleCapError(
                f"{len(cur)} solution classes mod {p}^{j} exceed CLASS_BUDGET = {CLASS_BUDGET}"
            )
        if not cur:
            break
        levels.append(sorted(cur))
    return levels


def _synthesize_factored(fs, f: IntPoly, m0: int) -> GcdPorcFunction:
    hs = [p.exact_div(f) for p in fs if p]
    gamma = 0
    for h in hs:
        gamma = gcd(gamma, content_and_primitive(h)[0])
    hs = [IntPoly(tuple(c // gamma for c in h.coeffs)) for h in hs]
    if m0 % gamma:
        raise ConsistencyError("family content does not divide the Bezout modulus")
    reduced = m0 // gamma
    local_lists = []
    stored_m = gamma
    factors = _factorize(reduced)
    for p in sorted(factors):
        levels = _solution_levels(hs, p, factors[p])
        if not levels:
            continue
        stored_m *= p ** len(levels)
        terms: list[tuple[int, int, int]] = [(1, 0, 1)]
        for j, classes in enumerate(levels, start=1):
            pj, pj1 = p**j, p ** (j - 1)
            for c in classes:
                # (p^j - p^(j-1)) * [x = c mod p^j], written as a gcd difference
                terms.append((1, c % pj, pj))
                terms.append((-1, c % pj1, pj1))
        local_lists.append(terms)
    if not local_lists:
        d = PorcExpression(Fraction(gamma)) if gamma > 1 else PORC_ONE
        return GcdPorcFunction(f=f, d=d, m=max(gamma, 1))
    combined: list[tuple[int, int, int]] = [(1, 0, 1)]
    for terms in local_lists:
        new = []
        for c1, r1, m1 in combined:
            for c2, r2, m2 in terms:
                new.append((c1 * c2, _crt(r1, m1, r2, m2), m1 * m2))
        if len(new) > TERM_BUDGET:
            raise ScaleCapError(
                f"{len(new)} factored synthesis terms exceed TERM_BUDGET = {TERM_BUDGET}"
            )
        combined = new
    raw = [(Fraction(gamma * c), r, m) for c, r, m in combined]
    d = _canonicalize(Fraction(0), raw)
    check_porc_invariants(d)
    return GcdPorcFunction(f=f, d=d, m=stored_m)


def porc_to_residue_table(obj) -> tuple[int, list[IntPoly]]:
    """Collapse to one plain integer polynomial per residue class.

    Accepts a GcdPorcFunction or anything with (sign, GcdPorcFunction) term
    pairs (a counting function).  Entry r gives the signed polynomial
    sum(sign * d(r) * f) valid on arguments congruent to r mod the returned
    modulus.
    """
    if isinstance(obj, GcdPorcFunction):
        parts = [(1, obj)]
    else:
        parts = list(obj.terms)
    modulus = 1
    for _, g in parts:
        for _, _, m in g.d.terms:
            modulus = lcm(modulus, m)
    table = []
    for r in range(modulus):
        coeffs: list[Fraction] = []
        for sign, g in parts:
            dval = sign * porc_eval(g.d, r)
            fc = g.f.coeffs
            if len(fc) > len(coeffs):
                coeffs.extend([Fraction(0)] * (len(fc) - len(coeffs)))
            for i, c in enumerate(fc):
                coeffs[i] += dval * c
        if any(c.denominator != 1 for c in coeffs):
            raise ConsistencyError("residue-class polynomial has fractional coefficients")
        table.append(IntPoly(tuple(c.numerator for c in coeffs)))
    return modulus, table
