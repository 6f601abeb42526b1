"""
Closed forms for gcds of polynomial values
==========================================

The integer-valued function h(x) = gcd(f1(x), ..., fs(x)) always factors
as d(x) * |f(x)| with f the polynomial gcd of the family and d an integer
combination of gcd(x - n_i, m_i) terms.  This demo builds a few of these
closed forms and inspects their ingredients.
"""

from math import gcd

from porcfield import (
    IntPoly,
    bezout_cofactors,
    parse_poly,
    porc_eval,
    synthesize_gcd_function,
)

###############################################################################
# A family whose gcd depends on parity
# ------------------------------------

family = [parse_poly("x^2+x"), parse_poly("x^2-x")]
f, cofactors, m = bezout_cofactors(family)
print(f"family: {[p.render('x') for p in family]}")
print(f"polynomial gcd f = {f.render('x')}")
# integer cofactors G_i with sum(f_i * G_i) = m * f: m is the Bezout modulus
assert sum((p * c for p, c in zip(family, cofactors)), IntPoly()) == f * m
print(f"integer cofactors {[c.render('x') for c in cofactors]} "
      f"with sum(f_i*G_i) = m*f for Bezout modulus m = {m}")

g = synthesize_gcd_function(family)
print(f"closed form: gcd = {g.render('x')}   (residue modulus {g.m})")
print(f"d = gcd/|f| per residue class mod {g.m}: {[int(porc_eval(g.d, a)) for a in range(g.m)]}")

print("\nx | gcd(f1(x), f2(x)) | d(x)*|f(x)|")
for x in range(2, 10):
    direct = gcd(family[0](x), family[1](x))
    print(f"{x} | {direct:17d} | {g.value_at(x):11d}")

###############################################################################
# A family with a large modulus
# -----------------------------
# Random-looking families put a resultant-sized modulus into the Bezout
# identity.  The synthesis works prime by prime over the modulus of its own
# gcd fold, which builds no cofactors: any integer m with m*f in the
# family's ideal serves, and one of 2^64 or more is first cut down to a
# divisor that still lies in the ideal.  Only the primes where the family
# has common roots add terms, so the result stays small.

family = [parse_poly("x^5-3*x^2+7"), parse_poly("2*x^4+x-9")]
f, cofactors, m = bezout_cofactors(family)
assert sum((p * c for p, c in zip(family, cofactors)), IntPoly()) == f * m
print(f"\nfamily: {[p.render('x') for p in family]}")
print(f"f = {f.render('x')}, Bezout modulus m = {m}")
print(f"integer cofactors {[c.render('x') for c in cofactors]}")
g = synthesize_gcd_function(family)
print(f"closed form d = {g.d.render('x')}   (modulus {g.m}, {len(g.d.terms)} terms)")
probes = [-11, 3, 50, 1234]
if g.d.terms:
    probes.append(g.d.terms[0][1])  # land on the exceptional residue class too
for x in probes:
    direct = gcd(family[0](x), family[1](x))
    assert direct == g.value_at(x)
    print(f"  check x={x}: gcd = {direct} = d(x)*|f(x)| with d(x) = {porc_eval(g.d, x)}")
