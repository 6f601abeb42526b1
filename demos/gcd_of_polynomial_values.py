"""
Closed forms for gcds of polynomial values
==========================================

The integer-valued function h(x) = gcd(f1(x), ..., fs(x)) always factors
as d(x) * |f(x)| with f the polynomial gcd of the family and d a rational
combination of gcd(x - n_i, m_i) terms.  This demo builds a few of these
closed forms and inspects their ingredients.
"""

from math import gcd

from porcfield import (
    bezout_cofactors,
    build_indicator,
    indicator_eval,
    parse_poly,
    porc_eval,
    synthesize_gcd_function,
)

###############################################################################
# A family whose gcd depends on parity
# ------------------------------------

family = [parse_poly("x^2+x"), parse_poly("x^2-x")]
f, cofactors, m = bezout_cofactors(family)
print(f"family: {[str(p) for p in family]}")
print(f"polynomial gcd f = {f.render('x')}")
print(f"cofactors {[repr(c) for c in cofactors]} with denominator lcm m = {m}")

g = synthesize_gcd_function(family)
print(f"closed form: gcd = {g.render('x')}   (residue modulus {g.m})")
print(f"d = gcd/|f| per residue class mod {g.m}: {[int(porc_eval(g.d, a)) for a in range(g.m)]}")

print("\nx | gcd(f1(x), f2(x)) | d(x)*|f(x)|")
for x in range(2, 10):
    direct = gcd(family[0](x), family[1](x))
    print(f"{x} | {direct:17d} | {g.value_at(x):11d}")

###############################################################################
# The indicator behind the construction
# -------------------------------------
# For a modulus m, a signed sum of gcd(x, m/d) terms over squarefree d
# vanishes on every nonzero class and equals Euler's totient at 0 mod m.

scheme = build_indicator(12)
print(f"\nindicator for modulus 12: prime support {scheme.primes}, terms {scheme.terms}")
print("x:      ", list(range(1, 13)))
print("values: ", [indicator_eval(scheme, x) for x in range(1, 13)])

###############################################################################
# A family with a large modulus
# -----------------------------
# Random-looking families put resultant-sized denominators into the Bezout
# identity; the synthesis works prime by prime over that modulus, so the
# result stays small.

family = [parse_poly("x^5-3*x^2+7"), parse_poly("2*x^4+x-9")]
f, _, m = bezout_cofactors(family)
print(f"\nfamily: {[str(p) for p in family]}")
print(f"f = {f.render('x')}, Bezout modulus m = {m}")
g = synthesize_gcd_function(family)
print(f"closed form d = {g.d.render('x')}   (modulus {g.m}, {len(g.d.terms)} terms)")
probes = [-11, 3, 50, 1234]
if g.d.terms:
    probes.append(g.d.terms[0][1])  # land on the exceptional residue class too
for x in probes:
    direct = gcd(family[0](x), family[1](x))
    assert direct == g.value_at(x)
    print(f"  check x={x}: gcd = {direct} = d(x)*|f(x)| with d(x) = {porc_eval(g.d, x)}")
