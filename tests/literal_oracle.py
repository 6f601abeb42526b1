"""Reference oracle: the residue-profile construction of a gcd closed form.

The profile of d = gcd(f_1, ..., f_s) / |f| is read off one representative
of every residue class of the Bezout denominator modulus, reduced to its
least period, and written as 1 plus a weighted sum of shifted indicators of
the classes where d exceeds 1.  It loops over every residue class, so it
only suits small moduli; the package's prime-by-prime construction is
compared against it.
"""

from fractions import Fraction
from math import gcd, lcm

from porcfield import (
    GcdPorcFunction,
    IntPoly,
    PorcExpression,
    bezout_cofactors,
    build_indicator,
    porc_canonicalize,
)
from porcfield.errors import ConsistencyError
from porcfield.porc import PORC_ONE

#: Largest Bezout modulus the oracle profiles class by class.
ORACLE_MODULUS_CAP = 10_000


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
    scheme = build_indicator(m)
    # d(x) = 1 + sum over classes a with d(a) > 1 of (d(a)-1)/c * k(x-a),
    # using that the scaled indicators over a full residue system sum to 1
    raw = []
    for i in range(m):
        w = profile[i % period] - 1
        if w:
            for sign, mod in scheme.terms:
                raw.append((Fraction(w * sign, scheme.c), i + 1, mod))
    d = porc_canonicalize(PorcExpression(Fraction(1), tuple(raw)))
    return GcdPorcFunction(f=f, d=d, m=m)
