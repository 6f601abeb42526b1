"""JSON encoding/decoding for the exact data types.

Polynomials are ascending coefficient arrays; the alpha and the
coefficients of a PORC expression are integers written as decimal strings,
so no JSON reader rounds them.  The readers refuse any other kind of number.
"""

from __future__ import annotations

from .polynomial import IntPoly
from .porc import GcdPorcFunction, PorcExpression
from .system import CountingFunction


def dumps(obj) -> str:
    """json.dumps(obj), byte for byte, for dicts with str keys, lists, ints and
    strings that need no escaping; anything else, a bool too, raises TypeError."""
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is str and obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
        return f'"{obj}"'
    if kind is list:
        return "[" + ", ".join(map(dumps, obj)) + "]"
    if kind is dict and all(type(key) is str for key in obj):
        return "{" + ", ".join(f"{dumps(k)}: {dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot write {obj!r} ({kind.__name__}) as JSON")


def _int(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{field} is {value!r}; expected an integer")
    return value


def _decimal(value, field: str) -> int:
    if type(value) is not str or not (value.isascii() and value.removeprefix("-").isdigit()):
        raise ValueError(f"{field} is {value!r}; expected a decimal string")
    return int(value)


def poly_to_list(p: IntPoly) -> list[int]:
    return list(p.coeffs)


def poly_from_list(coeffs) -> IntPoly:
    return IntPoly(tuple(_int(c, f"coefficient {i}") for i, c in enumerate(coeffs)))


def porc_to_dict(e: PorcExpression) -> dict:
    return {
        "alpha": str(e.alpha),
        "terms": [
            {"coeff": str(c), "n": n, "m": m} for c, n, m in e.terms
        ],
    }


def porc_from_dict(data: dict) -> PorcExpression:
    terms = tuple(
        (_decimal(t["coeff"], "coeff"), _int(t["n"], "n"), _int(t["m"], "m"))
        for t in data["terms"]
    )
    return PorcExpression(alpha=_decimal(data["alpha"], "alpha"), terms=terms)


def gcd_function_to_dict(g: GcdPorcFunction) -> dict:
    return {"f": poly_to_list(g.f), "d": porc_to_dict(g.d), "m": g.m}


def gcd_function_from_dict(data: dict) -> GcdPorcFunction:
    return GcdPorcFunction(
        f=poly_from_list(data["f"]), d=porc_from_dict(data["d"]), m=_int(data["m"], "m")
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
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"term {number} has sign {sign}; a term's sign is 1 or -1")
        terms.append((sign, gcd_function_from_dict(t["g"])))
    return CountingFunction(terms=tuple(terms))


def table_to_dict(modulus: int, polys) -> dict:
    return {"modulus": modulus, "classes": [poly_to_list(p) for p in polys]}
