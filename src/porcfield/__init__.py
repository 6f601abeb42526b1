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
    RatPoly,
    bezout_cofactors,
    content_and_primitive,
    parse_poly,
)
from .porc import (
    GcdPorcFunction,
    IndicatorScheme,
    PorcExpression,
    build_indicator,
    indicator_eval,
    porc_canonicalize,
    porc_eval,
    porc_to_residue_table,
    synthesize_gcd_function,
)
from .relmat import (
    RelationMatrix,
    build_relation_matrix,
    evaluate_matrix,
    maximal_minors,
    membership_poly,
    minor_gcd_at,
    poly_det,
)
from .snf import divisor_product, smith_normal_form
from .system import (
    EQ,
    NEQ,
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
    "EQ",
    "FieldContext",
    "GcdPorcFunction",
    "IndicatorScheme",
    "IntPoly",
    "MonomialRelation",
    "MonomialSystem",
    "NEQ",
    "PorcExpression",
    "RatPoly",
    "RelationMatrix",
    "ScaleCapError",
    "bezout_cofactors",
    "brute_force_count",
    "build_indicator",
    "build_relation_matrix",
    "content_and_primitive",
    "count_at",
    "counting_eval",
    "divisor_product",
    "evaluate_matrix",
    "exponent_space_count",
    "indicator_eval",
    "make_field",
    "make_system",
    "maximal_minors",
    "membership_poly",
    "minor_gcd_at",
    "parse_poly",
    "parse_system",
    "poly_det",
    "porc_canonicalize",
    "porc_eval",
    "porc_to_residue_table",
    "smith_normal_form",
    "split_prime_power",
    "synthesize_counting_function",
    "synthesize_gcd_function",
]
