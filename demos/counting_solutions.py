"""
Counting monomial-system solutions
==================================

Walks the full pipeline on one system: pick x1, x2 among the nonzero
elements of GF(q^2) so that x1 is the root of an irreducible quadratic
over GF(q) and x2 squared is the product of that quadratic's roots.
"""

from porcfield import (
    brute_force_count,
    build_relation_matrix,
    count_at,
    evaluate_matrix,
    parse_system,
    smith_normal_form,
    synthesize_counting_function,
)

SYSTEM = """
field GF(q^2);
vars x1, x2;
eq  x1^(q^2-1) = 1;      # x1 satisfies a quadratic over GF(q)
neq x1^(q-1)   = 1;      # ... which is irreducible (x1 not in GF(q))
eq  x1^(q+1)*x2^-2 = 1;  # x2^2 equals the product of the two roots
"""

system = parse_system(SYSTEM)
print(f"system over GF(q^{system.n}) in {system.variables}")

###############################################################################
# Counting at a concrete q
# ------------------------
# Each inclusion-exclusion subset turns into a relation matrix; the count is
# the product of the elementary divisors of the matrix evaluated at q.

rows = [r.exponents for r in system.equations]
matrix = build_relation_matrix(rows, system.k, system.n)
print("\nequality relation matrix (rows are exponent vectors):")
for row in matrix:
    print("   ", [str(p) for p in row])

for q in (3, 4, 5):
    divisors = smith_normal_form(evaluate_matrix(matrix, q))
    print(f"q={q}: elementary divisors of the equality system: {divisors}")

print("\ninclusion-exclusion over the inequation:")
for q in (2, 3, 4, 5, 7, 8, 9):
    print(f"  q={q}: count_at = {count_at(system, q)}")

###############################################################################
# The closed form
# ---------------
# One synthesis gives the count for every q at once.

cf = synthesize_counting_function(system)
print(f"\nclosed form: N(q) = {cf.render()}")

###############################################################################
# Checking against a literal field enumeration
# --------------------------------------------

print("\nq | closed form | field enumeration")
for q in (2, 3, 4, 5, 7, 8, 9):
    print(f"{q:2d} | {cf(q):11d} | {brute_force_count(system, q):17d}")
