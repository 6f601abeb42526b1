"""Exact univariate polynomial arithmetic over the integers and rationals.

Coefficients are Python ints / fractions.Fraction, so every operation is
exact at arbitrary precision.  Coefficient lists are stored ascending by
degree; the zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class IntPoly:
    """Immutable univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "IntPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, coeff, power) -> "IntPoly":
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "IntPoly":
        result = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient self / other in Z[x]; raises if the division is not exact."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        quot = [0] * max(len(rem) - dn + 1, 0)
        for i in range(len(quot) - 1, -1, -1):
            c, r = divmod(rem[i + dn - 1], other.leading)
            if r:
                raise ValueError("inexact polynomial division")
            quot[i] = c
            for j, oc in enumerate(other.coeffs):
                rem[i + j] -= c * oc
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPoly(quot)

    def render(self, var: str = "q") -> str:
        """Canonical compact text form, terms in descending degree."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = var if mag == 1 else f"{mag}*{var}"
            else:
                body = f"{var}^{i}" if mag == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(parts)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


class RatPoly:
    """Immutable univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_int(cls, p: IntPoly) -> "RatPoly":
        return cls(p.coeffs)

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return RatPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if not self or not other:
            return RatPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, other: "RatPoly"):
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.leading
        dn = len(other.coeffs)
        for i in range(len(rem) - dn, -1, -1):
            c = rem[i + dn - 1] / dlead
            if c:
                quot[i] = c
                for j, oc in enumerate(other.coeffs):
                    rem[i + j] -= c * oc
        return RatPoly(quot), RatPoly(rem)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_int_poly(self) -> IntPoly:
        if not self.is_integral():
            raise ValueError("polynomial has non-integer coefficients")
        return IntPoly(tuple(c.numerator for c in self.coeffs))

    def denominator_lcm(self) -> int:
        out = 1
        for c in self.coeffs:
            out = lcm(out, c.denominator)
        return out

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]!r})"


def content_and_primitive(p: IntPoly) -> tuple[int, IntPoly]:
    """Split p into content * primitive part.

    The primitive part has coprime coefficients and a positive leading
    coefficient; the sign lives in the content.
    """
    if not p:
        raise ValueError("zero polynomial has no primitive part")
    c = 0
    for a in p.coeffs:
        c = gcd(c, a)
    if p.leading < 0:
        c = -c
    return c, IntPoly(tuple(a // c for a in p.coeffs))


def _ext_gcd(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly, RatPoly]:
    # extended Euclid in Q[x]: returns (g, u, v) with u*a + v*b = g
    r0, r1 = a, b
    s0, s1 = RatPoly.one(), RatPoly.zero()
    t0, t1 = RatPoly.zero(), RatPoly.one()
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _primitive_scale(g: RatPoly) -> tuple[IntPoly, Fraction]:
    # write g = scale * f with f a primitive positive-leading integer polynomial
    den = g.denominator_lcm()
    cleared = (g * den).to_int_poly()
    c, prim = content_and_primitive(cleared)
    return prim, Fraction(c, den)


def bezout_cofactors(fs) -> tuple[IntPoly, list[RatPoly], int]:
    """Gcd f of the family plus rational cofactors g_i with sum(f_i*g_i) = f.

    Returns (f, cofactors, m) where m is the lcm of all denominators
    appearing in the cofactors (1 when they are all integral).  Zero members
    get a zero cofactor; an all-zero family is an error.
    """
    fs = list(fs)
    live = [(i, p) for i, p in enumerate(fs) if p]
    if not live:
        raise ValueError("gcd of an all-zero family is undefined")
    i0, p0 = live[0]
    g, scale = _primitive_scale(RatPoly.from_int(p0))
    cofs: dict[int, RatPoly] = {i0: RatPoly((1 / scale,))}
    for i, p in live[1:]:
        g2, u, v = _ext_gcd(RatPoly.from_int(g), RatPoly.from_int(p))
        g, scale = _primitive_scale(g2)
        inv = 1 / scale
        cofs = {j: (u * c) * inv for j, c in cofs.items()}
        cofs[i] = v * inv
    gs = [cofs.get(i, RatPoly.zero()) for i in range(len(fs))]
    m = 1
    for gp in gs:
        m = lcm(m, gp.denominator_lcm())
    return g, gs, m


_POLY_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\^)|(\*)|(\+)|(-)|(.))")


def parse_poly(text: str, var: str | None = None) -> IntPoly:
    """Parse a compact integer polynomial such as ``x^2+x`` or ``3*q^2-1``.

    Any single identifier may serve as the indeterminate; pass ``var`` to
    require a specific one.
    """
    pos = 0
    tokens = []
    for m in _POLY_TOKEN.finditer(text):
        if m.group(7) is not None:
            raise ValueError(f"unexpected character {m.group(7)!r} in polynomial")
        for idx, kind in ((1, "int"), (2, "ident"), (3, "^"), (4, "*"), (5, "+"), (6, "-")):
            if m.group(idx) is not None:
                tokens.append((kind, m.group(idx)))
                break
    if not tokens:
        raise ValueError("empty polynomial")

    seen_var = var
    acc = IntPoly()

    def fail():
        raise ValueError(f"malformed polynomial: {text!r}")

    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        if tokens[i][0] in ("+", "-"):
            if tokens[i][0] == "-":
                sign = -1
            i += 1
        elif not first:
            fail()
        if i >= len(tokens) or tokens[i][0] in ("+", "-"):
            fail()
        coeff = None
        if tokens[i][0] == "int":
            coeff = int(tokens[i][1])
            i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "ident":
                    fail()
            elif i < len(tokens) and tokens[i][0] == "ident":
                fail()  # coefficient juxtaposition like "2x" needs a '*'
        if i < len(tokens) and tokens[i][0] == "ident":
            name = tokens[i][1]
            if seen_var is None:
                seen_var = name
            elif name != seen_var:
                raise ValueError(f"conflicting variable names {seen_var!r} and {name!r}")
            i += 1
            power = 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    fail()
                power = int(tokens[i][1])
                i += 1
            acc = acc + IntPoly.monomial(sign * (1 if coeff is None else coeff), power)
        elif coeff is not None:
            acc = acc + IntPoly.constant(sign * coeff)
        else:
            fail()
        first = False
    return acc
