"""Closed-form synthesis of gcd-of-polynomial-values functions.

Given integer polynomials f_1, ..., f_s, the integer-valued function
h(x) = gcd(f_1(x), ..., f_s(x)) factors as h(x) = d(x) * |f(x)| where f is
the polynomial gcd of the family and d is periodic, expressible as

    d(x) = alpha + sum_i alpha_i * gcd(x - n_i, m_i)

with integer coefficients, moduli m_i > 1 and shifts 0 <= n_i < m_i.  This
module computes that expression exactly, in plain ints.

The construction works prime by prime over a modulus m, a positive integer
with m * f in the ideal (f_1, ..., f_s) of Z[x].  It comes from a gcd fold
that builds no cofactors (``_gcd_fold``); for random families m is
resultant-sized, far beyond any per-residue loop.  The solution classes of
h_i(x) = 0 mod p^j are found by extracting the roots of one member mod p,
keeping those where the others vanish too, and Hensel-style lifting, each
contributing a difference gcd(x-c, p^j) - gcd(x-c, p^(j-1)).  Each prime's
piece is built with its equal terms merged, and the pieces are multiplied
together through CRT; their moduli are coprime, so the product has no two
equal terms and needs no merging.  Only the prime factorization
of the modulus enters the result, and any integer of the family's ideal
gives the same closed form, so neither the order of the family nor the fold
that produced m shows in it.  ``_gfpoly.factorize`` computes the
factorization, and past its ``FACTOR_STEP_CAP`` the synthesis raises
ScaleCapError; a modulus of 2^64 or more is first cut down by
``_shrink_modulus``.
"""

from math import gcd, lcm

from ._gfpoly import factorize, gf_eval, gf_from_coeffs, gf_roots
from ._record import Record
from .errors import ConsistencyError, ScaleCapError
from .polynomial import IntPoly, _ext_euclid, _signed_sum, content_and_primitive

# Not called here; the benchmark's tracer wraps porcfield.porc.bezout_cofactors.
from .polynomial import bezout_cofactors  # noqa: F401

#: Most terms of d the factored construction builds.  Every solution class of
#: a prime power keeps a term of d, so this bounds the classes too.
TERM_BUDGET = 200_000
#: Most residue classes porc_to_residue_table builds, one row each.
TABLE_ROW_CAP = 100_000


class PorcExpression(Record):
    """alpha + sum of coeff * gcd(x - shift, modulus) terms."""

    __slots__ = ("alpha", "terms")
    _defaults = {"terms": ()}
    alpha: int
    terms: tuple[tuple[int, int, int], ...]

    def render(self, var: str = "q") -> str:
        alpha = [(self.alpha, "")] if self.alpha else []
        terms = [(c, f"gcd({var}-{n},{m})" if n else f"gcd({var},{m})") for c, n, m in self.terms]
        return _signed_sum(alpha + terms)

    def __str__(self):
        return self.render()


PORC_ONE = PorcExpression(1)


class GcdPorcFunction(Record):
    """The pair (d, f) with residue modulus m: values are d(x) * |f(x)|."""

    __slots__ = ("f", "d", "m")
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
        d_compound = len(self.d.terms) + bool(self.d.alpha) > 1
        if self.f == IntPoly((1,)):
            return f"({d_str})" if d_compound else d_str
        if d_compound:
            d_str = f"({d_str})"
        if sum(1 for c in self.f.coeffs if c) > 1 or abs(self.f.leading) != 1:
            f_str = f"({f_str})"
        return f"{d_str}*{f_str}"

    def __str__(self):
        return self.render()


def porc_eval(e: PorcExpression, x: int) -> int:
    """Exact value of the expression; gcd(0, m) is taken as m."""
    acc = e.alpha
    for coeff, n, m in e.terms:
        acc += coeff * gcd(x - n, m)
    return acc


def check_porc_invariants(e: PorcExpression) -> None:
    """Raise unless the expression is in canonical form."""
    seen = set()
    for coeff, n, m in e.terms:
        if m <= 1:
            raise ConsistencyError(f"modulus {m} must exceed 1")
        if not 0 <= n < m:
            raise ConsistencyError(f"shift {n} outside [0, {m})")
        if not coeff:
            raise ConsistencyError("zero coefficient retained")
        if (n, m) in seen:
            raise ConsistencyError(f"duplicate term ({n}, {m})")
        seen.add((n, m))


def _gcd_fold(fs, f: IntPoly | None = None, m: int = 0) -> tuple[IntPoly, int]:
    """(f, m): the primitive gcd f of the members and an integer m >= 1 with m*f in their ideal.

    f has a positive leading coefficient.  Pass the (f, m) of an earlier fold
    to fold more members into the same family.  The fold keeps no cofactors:
    for a member p, the fraction-free extended Euclid gives h = s*f + t*p,
    and m*h = s*(m*f) + (t*m)*p lies in the ideal, so when h's primitive part
    g is a new gcd, m*|content(h)| is the modulus of g.  When g equals f, m
    stays, and once f is 1 no member can change it.
    """
    for p in fs:
        if f is not None and f.degree == 0:
            break
        if not p:
            continue
        if f is None:
            c, f = content_and_primitive(p)
            m = abs(c)
            continue
        c, g = content_and_primitive(_ext_euclid(f, p)[0])
        if g != f:
            f, m = g, m * abs(c)
    if f is None:
        raise ValueError("gcd of an all-zero family is undefined")
    return f, m


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 of x = r1 mod m1, x = r2 mod m2, for coprime m1, m2."""
    return (r1 + m1 * ((r2 - r1) * pow(m1, -1, m2) % m2)) % (m1 * m2)


def _value_and_slope(coeffs, x: int, mod: int) -> tuple[int, int]:
    """(h(x) mod mod, h'(x) mod mod) for h with these coefficients, in one Horner pass."""
    v = s = 0
    for c in reversed(coeffs):
        s = (s * x + v) % mod
        v = (v * x + c) % mod
    return v, s


def _solution_levels(hs, p: int, e: int) -> list[list[int]]:
    """Residues mod p^j (j = 1, 2, ...) where every h_i vanishes mod p^j.

    Returns one sorted residue list per level, stopping at the first empty
    level or at level e.  Level 1 is the roots of the first member that is
    nonzero mod p at which every other member vanishes mod p too, that is
    the roots of the members' gcd mod p.  Level j+1 is lifted from level j:
    on a residue c with all h_i(c) = 0 mod p^j, the children c + t*p^j that
    survive are cut out by the linear congruences
    h_i(c) + t*p^j*h_i'(c) = 0 mod p^(j+1) (exact for j >= 1 since the
    quadratic correction has valuation 2j).

    A level of more than TERM_BUDGET classes is refused while it is built,
    and that refuses no input the exact count in synthesize_gcd_function
    would let through.  In the prime's local expression each class's key is
    +1, and -1 for each of its children, so it is zero only on a class with
    exactly one child.  Following single children down from any class ends
    at a class with no child or with several, whose key is nonzero; the
    classes of one level have disjoint descendants, so the local expression
    has at least as many terms as any level has classes, and the CRT
    product, len(d) >= 1 times as many.
    """
    rest = iter(hs)
    first: list[int] = []
    for h in rest:
        first = gf_from_coeffs(h.coeffs, p)
        if first:
            break
    # gf_roots refuses the zero polynomial: the content is divided out, so
    # some member is nonzero mod p
    level = gf_roots(first, p)
    for h in rest:
        if not level:
            return []
        level = [c for c in level if gf_eval(h.coeffs, c, p) == 0]
    if not level:
        return []
    if e > 1:
        # members equal mod p^e have the same values mod p^j and slopes mod p
        # at every level, so one of them cuts out the same classes
        pe = p**e
        hs = list({tuple(c % pe for c in h.coeffs): h for h in hs}.values())
    levels = [level]
    for j in range(2, e + 1):
        pj, pj1 = p**j, p ** (j - 1)
        cur: list[int] = []
        for c in levels[-1]:
            t_fixed: int | None = None
            dead = False
            for h in hs:
                v, s = _value_and_slope(h.coeffs, c, pj)
                a_i = v // pj1
                b_i = s % p
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
            # a singular lift keeps all p children, a regular one a single child
            size = len(cur) + (p if t_fixed is None else 1)
            if size > TERM_BUDGET:
                raise ScaleCapError(
                    f"{size} solution classes mod {p}^{j} exceed TERM_BUDGET = {TERM_BUDGET}"
                )
            if t_fixed is None:
                cur.extend(c + t * pj1 for t in range(p))
            else:
                cur.append(c + t_fixed * pj1)
        if not cur:
            break
        levels.append(sorted(cur))
    return levels


def _shrink_modulus(hs, m: int) -> int:
    """A divisor of m that, like m, is a positive integer in the ideal (h_1, ..., h_s).

    For each h_i coprime to h_1 over Q, the fraction-free extended Euclid gives
    s*h_1 + t*h_i = c, a nonzero integer; the gcd of m and every such c stays
    in the ideal.  h_1 itself counts when it is constant, as it is when a
    family's members all equal its gcd.  Every solution level of the family
    lies below the prime powers of any integer of the ideal, so factoring the
    divisor loses none.  The modulus m, built by one order-dependent fold, can
    be resultant-sized where the divisor is small.  Below 2^64 a composite
    cofactor has a prime below 2^32, which rho finds in about 10^5 steps,
    well within FACTOR_STEP_CAP, so a smaller m is left as it is.
    """
    for h in hs:
        if m.bit_length() <= 64:
            break
        g = _ext_euclid(hs[0], h)[0]
        if g.degree == 0:
            m = gcd(m, g.coeffs[0])
    return m


def synthesize_gcd_function(fs, fold: tuple[IntPoly, int] | None = None) -> GcdPorcFunction:
    """Closed PORC form of x -> gcd(f_1(x), ..., f_s(x)).

    Needs at least one nonzero member.  The result satisfies
    value_at(x) == gcd of the family values for every x with f(x) != 0.
    A caller that has already folded the family passes its (f, m) as fold:
    the family's primitive gcd f and a modulus m >= 1 with m*f in its ideal.

    d is built as a dict {(modulus, shift): coeff}, with alpha under (1, 0).
    It starts as the family content gamma and is multiplied through CRT by
    each prime's local expression 1 + sum over classes c mod p^j of
    gcd(x-c, p^j) - gcd(x-c, p^(j-1)), built merged; zeros are dropped.  The
    moduli of different primes are coprime, so the CRT map is one to one:
    every product key is distinct, d is canonical once sorted, and TERM_BUDGET
    can refuse a product of len(d) times the nonzero local keys before it is built.
    """
    f, m0 = _gcd_fold(fs) if fold is None else fold
    hs = [p for p in fs if p]
    if f.degree != 0:
        try:
            hs = [p.exact_div(f) for p in hs]
        except ValueError as exc:
            raise ConsistencyError("the polynomial gcd does not divide every member") from exc
    gamma = gcd(*(c for h in hs for c in h.coeffs))
    if gamma > 1:
        hs = [IntPoly(tuple(c // gamma for c in h.coeffs)) for h in hs]
    if m0 % gamma:
        raise ConsistencyError("family content does not divide the modulus")
    d = {(1, 0): gamma}
    stored_m = gamma
    for p, e in factorize(_shrink_modulus(hs, m0 // gamma)).items():
        levels = _solution_levels(hs, p, e)
        stored_m *= p ** len(levels)
        local = {(1, 0): 1}
        for j, classes in enumerate(levels, start=1):
            pj1 = p ** (j - 1)
            for c in classes:
                # (p^j - p^(j-1)) * [x = c mod p^j] is +1 on c's key, which
                # no earlier level touched, and -1 on its parent's key
                local[p * pj1, c] = 1
                parent = (pj1, c % pj1)
                local[parent] = local.get(parent, 0) - 1
        local = {key: c for key, c in local.items() if c}
        terms = len(d) * len(local)
        if terms > TERM_BUDGET:
            raise ScaleCapError(
                f"{terms} factored synthesis terms exceed TERM_BUDGET = {TERM_BUDGET}"
            )
        d = {
            (m1 * m2, _crt(r1, m1, r2, m2)): c1 * c2
            for (m1, r1), c1 in d.items()
            for (m2, r2), c2 in local.items()
        }
    alpha = d.pop((1, 0), 0)
    expr = PorcExpression(alpha, tuple((c, n, m) for (m, n), c in sorted(d.items())))
    check_porc_invariants(expr)
    return GcdPorcFunction(f=f, d=expr, m=stored_m)


def porc_to_residue_table(cf) -> tuple[int, list[IntPoly]]:
    """Collapse a counting function to one plain integer polynomial per residue class.

    cf has (sign, GcdPorcFunction) term pairs.  Entry r gives the signed
    polynomial sum(sign * d(r) * f) valid on arguments congruent to r mod
    the returned modulus.
    """
    modulus = 1
    for _, g in cf.terms:
        for _, _, m in g.d.terms:
            modulus = lcm(modulus, m)
    if modulus > TABLE_ROW_CAP:
        raise ScaleCapError(
            f"table of {modulus} residue classes exceeds TABLE_ROW_CAP = {TABLE_ROW_CAP}"
        )
    table = []
    for r in range(modulus):
        coeffs: list[int] = []
        for sign, g in cf.terms:
            dval = sign * porc_eval(g.d, r)
            fc = g.f.coeffs
            if len(fc) > len(coeffs):
                coeffs.extend([0] * (len(fc) - len(coeffs)))
            for i, c in enumerate(fc):
                coeffs[i] += dval * c
        if any(c.denominator != 1 for c in coeffs):
            raise ConsistencyError("residue-class polynomial has fractional coefficients")
        table.append(IntPoly(tuple(c.numerator for c in coeffs)))
    return modulus, table
