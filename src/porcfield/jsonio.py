"""JSON encoding/decoding for the exact data types.

Polynomials are ascending coefficient arrays; the alpha and the
coefficients of a PORC expression are integers written as decimal strings,
so no JSON reader rounds them.
"""

from __future__ import annotations

from .polynomial import IntPoly
from .porc import GcdPorcFunction, PorcExpression
from .system import CountingFunction


def poly_to_list(p: IntPoly) -> list[int]:
    return list(p.coeffs)


def poly_from_list(coeffs) -> IntPoly:
    return IntPoly(tuple(int(c) for c in coeffs))


def porc_to_dict(e: PorcExpression) -> dict:
    return {
        "alpha": str(e.alpha),
        "terms": [
            {"coeff": str(c), "n": n, "m": m} for c, n, m in e.terms
        ],
    }


def porc_from_dict(data: dict) -> PorcExpression:
    terms = tuple(
        (int(t["coeff"]), int(t["n"]), int(t["m"])) for t in data["terms"]
    )
    return PorcExpression(alpha=int(data["alpha"]), terms=terms)


def gcd_function_to_dict(g: GcdPorcFunction) -> dict:
    return {"f": poly_to_list(g.f), "d": porc_to_dict(g.d), "m": g.m}


def gcd_function_from_dict(data: dict) -> GcdPorcFunction:
    return GcdPorcFunction(
        f=poly_from_list(data["f"]), d=porc_from_dict(data["d"]), m=int(data["m"])
    )


def counting_function_to_dict(cf: CountingFunction) -> dict:
    return {
        "terms": [
            {"sign": sign, "g": gcd_function_to_dict(g)} for sign, g in cf.terms
        ]
    }


def counting_function_from_dict(data: dict) -> CountingFunction:
    terms = []
    for number, t in enumerate(data["terms"]):
        sign = t["sign"]
        # render prints a term's sign, never a magnitude
        if sign not in (1, -1):
            raise ValueError(f"term {number} has sign {sign}; a term's sign is 1 or -1")
        terms.append((int(sign), gcd_function_from_dict(t["g"])))
    return CountingFunction(terms=tuple(terms))


def table_to_dict(modulus: int, polys) -> dict:
    return {"modulus": modulus, "classes": [poly_to_list(p) for p in polys]}
