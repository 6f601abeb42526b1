"""
Residue-class polynomial tables
===============================

A counting function built from gcd terms agrees with one plain polynomial
on each residue class modulo N (N = lcm of the gcd moduli).  This demo
expands two functions into their tables.
"""

from porcfield import (
    IntPoly,
    parse_poly,
    parse_system,
    porc_to_residue_table,
    synthesize_counting_function,
)
from porcfield.porc import GcdPorcFunction, PORC_ONE, PorcExpression
from porcfield.system import CountingFunction

###############################################################################
# Table of a synthesized counting function
# ----------------------------------------

system = parse_system(
    "field GF(q^2); vars x1, x2; "
    "eq x1^(q^2-1) = 1; neq x1^(q-1) = 1; eq x1^(q+1)*x2^-2 = 1"
)
cf = synthesize_counting_function(system)
print(f"counting function: {cf.render()}")

modulus, table = porc_to_residue_table(cf)
print(f"collapses to {modulus} polynomials (one per class mod {modulus}):")
for r, poly in enumerate(table):
    print(f"  q = {r} mod {modulus}:  {poly.render()}")

###############################################################################
# A larger hand-built expression
# ------------------------------
# Three gcd terms with moduli 3, 4 and 5 force a table modulo 60.

def scaled_gcd_term(coeff, shift, modulus, bound):
    d = PorcExpression(0, ((coeff, shift, modulus),))
    return GcdPorcFunction(f=IntPoly([1]), d=d, m=bound)

big = CountingFunction(
    terms=(
        (1, GcdPorcFunction(f=parse_poly("3*p^2+39*p+344"), d=PORC_ONE, m=1)),
        (1, scaled_gcd_term(24, 1, 3, 72)),
        (1, scaled_gcd_term(11, 1, 4, 44)),
        (1, scaled_gcd_term(2, 1, 5, 10)),
    )
)
print(f"\nexpression: {big.render('p')}")
print(f"values: p=5 -> {big(5)}, p=7 -> {big(7)}")

modulus, table = porc_to_residue_table(big)
print(f"table modulus: {modulus}")
print(f"class p = 1 mod 60:  {table[1].render('p')}")
print(f"class p = 7 mod 60:  {table[7].render('p')}")
print(f"class p = 11 mod 60: {table[11].render('p')}")
distinct = sorted({tuple(p.coeffs) for p in table})
print(f"{len(distinct)} distinct polynomials across the 60 classes")
