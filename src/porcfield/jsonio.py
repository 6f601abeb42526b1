"""JSON encoding/decoding for the exact data types.

Polynomials are ascending coefficient arrays; the alpha and the
coefficients of a PORC expression are integers written as decimal strings,
so no JSON reader rounds them.  The readers refuse any other kind of number,
any object whose keys differ from the writer's, and a closed form that is
not canonical, each with a ValueError that names the field.
"""

from .errors import ConsistencyError
from .polynomial import IntPoly, _int
from .porc import GcdPorcFunction, PorcExpression, check_porc_invariants
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


def _container(value, kind: type, field: str, *keys: str):
    """value, if its type is kind; a dict must have exactly the keys the writer emits."""
    if type(value) is not kind:
        raise ValueError(f"{field} is of type {type(value).__name__}; expected a {kind.__name__}")
    if kind is dict and value.keys() != set(keys):
        raise ValueError(f"{field} has keys {list(value)}; expected {list(keys)}")
    return value


def _decimal(value, field: str) -> int:
    if type(value) is not str or not (value.isascii() and value.removeprefix("-").isdigit()):
        raise ValueError(f"{field} is {value!r}; expected a decimal string")
    return int(value)


def poly_to_list(p: IntPoly) -> list[int]:
    return list(p.coeffs)


def poly_from_list(coeffs) -> IntPoly:
    coeffs = _container(coeffs, list, "f")
    return IntPoly(tuple(_int(c, f"coefficient {i}") for i, c in enumerate(coeffs)))


def porc_to_dict(e: PorcExpression) -> dict:
    return {
        "alpha": str(e.alpha),
        "terms": [
            {"coeff": str(c), "n": n, "m": m} for c, n, m in e.terms
        ],
    }


def porc_from_dict(data: dict) -> PorcExpression:
    data = _container(data, dict, "d", "alpha", "terms")
    terms = []
    for number, t in enumerate(_container(data["terms"], list, "d terms")):
        t = _container(t, dict, f"d term {number}", "coeff", "n", "m")
        terms.append((_decimal(t["coeff"], "coeff"), _int(t["n"], "n"), _int(t["m"], "m")))
    e = PorcExpression(alpha=_decimal(data["alpha"], "alpha"), terms=tuple(terms))
    try:
        check_porc_invariants(e)
    except ConsistencyError as exc:
        raise ValueError(f"d is not canonical: {exc}") from exc
    return e


def gcd_function_to_dict(g: GcdPorcFunction) -> dict:
    return {"f": poly_to_list(g.f), "d": porc_to_dict(g.d), "m": g.m}


def gcd_function_from_dict(data: dict) -> GcdPorcFunction:
    data = _container(data, dict, "gcd function", "f", "d", "m")
    m = _int(data["m"], "m")
    if m < 1:
        raise ValueError(f"m is {m}; expected an integer >= 1")
    return GcdPorcFunction(f=poly_from_list(data["f"]), d=porc_from_dict(data["d"]), m=m)


def counting_function_to_dict(cf: CountingFunction) -> dict:
    return {
        "terms": [
            {"sign": sign, "g": gcd_function_to_dict(g)} for sign, g in cf.terms
        ]
    }


def counting_function_from_dict(data: dict) -> CountingFunction:
    data = _container(data, dict, "counting function", "terms")
    terms = []
    for number, t in enumerate(_container(data["terms"], list, "terms")):
        t = _container(t, dict, f"term {number}", "sign", "g")
        sign = t["sign"]
        # render prints a term's sign, never a magnitude
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"term {number} has sign {sign}; a term's sign is 1 or -1")
        terms.append((sign, gcd_function_from_dict(t["g"])))
    return CountingFunction(terms=tuple(terms))


def table_to_dict(modulus: int, polys) -> dict:
    return {"modulus": modulus, "classes": [poly_to_list(p) for p in polys]}
