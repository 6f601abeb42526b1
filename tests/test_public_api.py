"""The package's public names, pinned."""

import importlib

import porcfield

PUBLIC_NAMES = [
    "ConsistencyError",
    "CountingFunction",
    "DslSyntaxError",
    "EQ",
    "FieldContext",
    "GcdPorcFunction",
    "IntPoly",
    "MonomialRelation",
    "MonomialSystem",
    "NEQ",
    "PorcExpression",
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 38
    assert sorted(porcfield.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    module = importlib.import_module("porcfield")
    for name in PUBLIC_NAMES:
        assert getattr(module, name) is not None, name


def test_one_polynomial_class():
    import porcfield.polynomial

    assert not hasattr(porcfield, "RatPoly")
    assert not hasattr(porcfield.polynomial, "RatPoly")
