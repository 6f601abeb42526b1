"""
Oracle cross-checks
===================

Two independent ground truths back every symbolic count: literal
enumeration of field elements in an explicitly constructed GF(p^n), and
enumeration of exponent tuples solving linear congruences mod q^n - 1.
This demo builds a field by hand and races the oracles.
"""

from porcfield import (
    brute_force_count,
    count_at,
    exponent_space_count,
    make_field,
    parse_system,
)

###############################################################################
# Explicit field construction
# ---------------------------

field = make_field(3, 2)
print(f"GF(9) built with modulus coefficients {field.modulus} (ascending, monic)")

# Frobenius x -> x^3 is additive on the whole field
a, b = (1, 2), (1, 1)
lhs = field.pow(field.add(a, b), 3)
rhs = field.add(field.pow(a, 3), field.pow(b, 3))
print(f"(a+b)^3 = {lhs}, a^3 + b^3 = {rhs}")

# every nonzero element satisfies x^(q^n - 1) = 1
nonzero = [el for el in field.elements() if el != field.zero]
assert all(field.pow(el, 8) == field.one for el in nonzero)
print("all 8 nonzero elements of GF(9) satisfy x^8 = 1")

###############################################################################
# The two oracles against the symbolic count
# ------------------------------------------

system = parse_system(
    "field GF(q^2); vars x1, x2; "
    "eq x1^(q^2-1) = 1; neq x1^(q-1) = 1; eq x1^(q+1)*x2^-2 = 1"
)

print("\nq | divisors | field tuples | exponent tuples")
for q in (2, 3, 4, 5, 7, 8, 9):
    symbolic = count_at(system, q)
    field_count = brute_force_count(system, q)
    exponent_count = exponent_space_count(system, q)
    assert symbolic == field_count == exponent_count
    print(f"{q:2d} | {symbolic:8d} | {field_count:12d} | {exponent_count:15d}")

# the congruence oracle has no prime-power restriction
print(f"\nq=6 (not a prime power): symbolic {count_at(system, 6)}, "
      f"exponent oracle {exponent_space_count(system, 6)}")
