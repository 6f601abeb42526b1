"""porcfield: exact counting of monomial-equation solutions over finite fields.

The number of ways to pick nonzero elements of GF(q^n) subject to monomial
equations and inequations, viewed as a function of q, is polynomial on
residue classes (PORC).  This package computes that function in closed
form - a signed sum of terms d(q) * f(q) with
d(q) = alpha + sum_i alpha_i * gcd(q - n_i, m_i) - and ships independent
brute-force oracles to verify every step.
"""

from .errors import ConsistencyError, ScaleCapError
from .ffield import (
    FieldContext,
    brute_force_count,
    exponent_space_count,
    make_field,
    split_prime_power,
)
from .parser import DslSyntaxError, parse_system
from .polynomial import (
    IntPoly,
    bezout_cofactors,
    content_and_primitive,
    parse_poly,
)
from .porc import (
    GcdPorcFunction,
    PorcExpression,
    porc_eval,
    porc_to_residue_table,
    synthesize_gcd_function,
)
from .relmat import build_relation_matrix, evaluate_matrix, maximal_minors
from .snf import smith_normal_form
from .system import (
    CountingFunction,
    MonomialRelation,
    MonomialSystem,
    count_at,
    counting_eval,
    make_system,
    synthesize_counting_function,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "CountingFunction",
    "DslSyntaxError",
    "FieldContext",
    "GcdPorcFunction",
    "IntPoly",
    "MonomialRelation",
    "MonomialSystem",
    "PorcExpression",
    "ScaleCapError",
    "bezout_cofactors",
    "brute_force_count",
    "build_relation_matrix",
    "content_and_primitive",
    "count_at",
    "counting_eval",
    "evaluate_matrix",
    "exponent_space_count",
    "make_field",
    "make_system",
    "maximal_minors",
    "parse_poly",
    "parse_system",
    "porc_eval",
    "porc_to_residue_table",
    "smith_normal_form",
    "split_prime_power",
    "synthesize_counting_function",
    "synthesize_gcd_function",
]
