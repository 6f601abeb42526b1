"""Reference oracle: the residue-profile construction of a gcd closed form.

The profile of d = gcd(f_1, ..., f_s) / |f| is read off one representative
of every residue class of the Bezout modulus, reduced to its
least period, and written as 1 plus a weighted sum of shifted indicators of
the classes where d exceeds 1.  It loops over every residue class, so it
only suits small moduli; the package's prime-by-prime construction is
compared against it.

The oracle owns the indicator construction: ``build_indicator``, and the
``porc_canonicalize`` that merges its terms.  The package's synthesis needs
neither, so they live here and not in ``porcfield``.
"""

from fractions import Fraction
from math import gcd, lcm

from porcfield import (
    GcdPorcFunction,
    IntPoly,
    PorcExpression,
    bezout_cofactors,
    porc_eval,
)
from porcfield._gfpoly import factorize
from porcfield.errors import ConsistencyError
from porcfield.porc import PORC_ONE

#: Largest Bezout modulus the oracle profiles class by class.
ORACLE_MODULUS_CAP = 10_000


def build_indicator(m: int) -> PorcExpression:
    """Sum of mu(d) * gcd(x, m/d) over squarefree d | m.

    Its value is Euler's totient of m on the class 0 mod m and 0 elsewhere.
    """
    if m <= 1:
        raise ValueError("indicator modulus must exceed 1")
    raw = [(1, 0, m)]
    for p in factorize(m):
        raw += [(-coeff, 0, mod // p) for coeff, _, mod in raw]
    return porc_canonicalize(PorcExpression(0, tuple(raw)))


def porc_canonicalize(e: PorcExpression) -> PorcExpression:
    """Reduce shifts into [0, m_i), fold m_i = 1 into alpha, merge and drop terms."""
    alpha = e.alpha
    merged: dict[tuple[int, int], int] = {}
    for coeff, n, m in e.terms:
        if m == 1:
            alpha += coeff
        else:
            key = (m, n % m)
            merged[key] = merged.get(key, 0) + coeff
    terms = tuple((coeff, n, m) for (m, n), coeff in sorted(merged.items()) if coeff)
    return PorcExpression(alpha=alpha, terms=terms)


def residue_gcd_profile(fs, f: IntPoly, m: int) -> list[int]:
    """d(a) = gcd of the family values / |f| at one representative per class.

    Entry a (1-based) uses the smallest x >= a with x = a mod m and f(x) != 0.
    """
    fs = [p for p in fs if p]
    profile = []
    for a in range(1, m + 1):
        x = a
        while f(x) == 0:
            x += m
        g = 0
        for p in fs:
            g = gcd(g, p(x))
        d, rem = divmod(g, abs(f(x)))
        if rem:
            raise ConsistencyError("family gcd not divisible by the polynomial gcd value")
        profile.append(d)
    return profile


def literal_synthesis(fs) -> GcdPorcFunction:
    """Closed form of x -> gcd(f_1(x), ..., f_s(x)) from the residue profile."""
    f, _, m0 = bezout_cofactors(fs)
    if m0 > ORACLE_MODULUS_CAP:
        raise ValueError(f"Bezout modulus {m0} is too large for the oracle")
    if m0 == 1:
        return GcdPorcFunction(f=f, d=PORC_ONE, m=1)
    profile = residue_gcd_profile(fs, f, m0)
    period = next(
        c for c in range(1, m0 + 1)
        if m0 % c == 0 and all(profile[i] == profile[i % c] for i in range(m0))
    )
    m = lcm(period, *profile)
    if m == 1:
        return GcdPorcFunction(f=f, d=PORC_ONE, m=1)
    k = build_indicator(m)
    c = Fraction(porc_eval(k, m))  # Euler's totient of m, kept exact in the divisions below
    # d(x) = 1 + sum over classes a with d(a) > 1 of (d(a)-1)/c * k(x-a),
    # where k(x-a)/c is 1 on the class a mod m and 0 elsewhere
    alpha = Fraction(1)
    raw = []
    for i in range(m):
        w = profile[i % period] - 1
        if w:
            alpha += w * k.alpha / c
            raw += [(w * coeff / c, i + 1 + n, mod) for coeff, n, mod in k.terms]
    d = porc_canonicalize(PorcExpression(alpha, tuple(raw)))
    return GcdPorcFunction(f=f, d=d, m=m)
