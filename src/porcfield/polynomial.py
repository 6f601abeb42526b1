"""Exact univariate polynomial arithmetic over the integers.

Coefficients are Python ints, so every operation is exact at arbitrary
precision, and no step ever leaves Z[x]: division is pseudo-division, and
the Bezout cofactors of a family carry one common integer denominator.
Coefficient lists are stored ascending by degree; the zero polynomial has
an empty coefficient tuple.
"""

from math import gcd


class IntPoly:
    """Immutable univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _int(c, "a coefficient") for c in coeffs]
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

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner); a run of zero coefficients costs one power."""
        acc = skipped = 0
        for c in reversed(self.coeffs):
            if c:
                acc = acc * x ** (skipped + 1) + c
                skipped = 0
            else:
                skipped += 1
        return acc * x**skipped

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient self / other in Z[x]; raises if the division is not exact."""
        q, r, k = _pseudo_divmod(self, other)
        if r or any(c % k for c in q.coeffs):
            raise ValueError("inexact polynomial division")
        return _scale_down(q, k)

    def render(self, var: str = "q") -> str:
        """Canonical compact text form, terms in descending degree."""
        terms = [
            (c, "" if i == 0 else var if i == 1 else f"{var}^{i}")
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return _signed_sum(reversed(terms))

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def _int(value, field: str) -> int:
    """value, if its type is int; a bool, float, str or Fraction raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"{field} is {value!r}; expected an integer")
    return value


def _signed_sum(terms, spaced: bool = False) -> str:
    """Print (coeff, body) pairs as a signed sum such as ``3*q^2-q+1``.

    A term prints as |coeff|*body, as body alone when |coeff| is 1, and as
    |coeff| when body is empty; the sign of coeff joins it to the sum.  With
    spaced, the terms join as ``a - b + c``.  The caller parenthesizes any
    body that a minus sign must bind as a whole.  The empty sum prints 0.
    """
    plus, minus = (" + ", " - ") if spaced else ("+", "-")
    out = []
    for coeff, body in terms:
        mag = abs(coeff)
        if out:
            out.append(minus if coeff < 0 else plus)
        elif coeff < 0:
            out.append("-")
        out.append(f"{mag}*{body}" if body and mag != 1 else body or str(mag))
    return "".join(out) or "0"


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
    return c, _scale_down(p, c)


def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, int]:
    """(q, r, k) with k*a = q*b + r, deg r < deg b, k = lc(b)^max(deg a - deg b + 1, 0)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lc = b.leading
    rem = list(a.coeffs)
    dn = len(b.coeffs)
    steps = max(len(rem) - dn + 1, 0)
    quot = [0] * steps
    for i in range(steps - 1, -1, -1):
        # rem <- lc*rem - c*x^i*b cancels the top coefficient c
        c = rem.pop()
        quot[i] = c
        if lc != 1:  # for a monic b, a step costs deg b, not deg a
            rem = [x * lc for x in rem]
        if c:
            for j, bc in enumerate(b.coeffs[:-1]):
                rem[i + j] -= c * bc
    # quot[i] was set with i steps to go, each of which scales by lc
    power = 1
    for i in range(steps):
        quot[i] *= power
        power *= lc
    return IntPoly(quot), IntPoly(rem), power


def _scale_down(p: IntPoly, k: int) -> IntPoly:
    return IntPoly(tuple(c // k for c in p.coeffs))


def _ext_euclid(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(h, s, t) with s*a + t*b = h, a nonzero integer multiple of gcd(a, b).

    Fraction-free extended Euclid on nonzero a, b: every pseudo-remainder
    triple is a scalar multiple of the triple over Q[x], and is divided by
    the gcd of its coefficients to keep the integers small.
    """
    r0, s0, t0 = a, IntPoly((1,)), IntPoly()
    r1, s1, t1 = b, IntPoly(), IntPoly((1,))
    while True:
        q, r, k = _pseudo_divmod(r0, r1)
        if not r:
            return r1, s1, t1
        s, t = s0 * k - q * s1, t0 * k - q * t1
        c = gcd(*r.coeffs, *s.coeffs, *t.coeffs)
        r0, s0, t0 = r1, s1, t1
        r1, s1, t1 = _scale_down(r, c), _scale_down(s, c), _scale_down(t, c)


def _lowest_terms(cofs: dict[int, IntPoly], m: int) -> tuple[dict[int, IntPoly], int]:
    # divide the cofactors and their denominator m by the content they share, m > 0
    k = gcd(m, *(c for p in cofs.values() for c in p.coeffs))
    if m < 0:
        k = -k
    if k == 1:
        return cofs, m
    return {j: _scale_down(p, k) for j, p in cofs.items()}, m // k


def bezout_cofactors(fs) -> tuple[IntPoly, list[IntPoly], int]:
    """Gcd f of the family plus integer cofactors G_i with sum(f_i*G_i) = m*f.

    Returns (f, cofactors, m): f is primitive with a positive leading
    coefficient, and m >= 1 shares no factor with every coefficient of the
    cofactors, so G_i / m are the rational cofactors the extended Euclid
    over Q[x] gives and m is the lcm of their denominators.  Zero members
    get a zero cofactor; an all-zero family is an error.
    """
    fs = list(fs)
    live = [(i, p) for i, p in enumerate(fs) if p]
    if not live:
        raise ValueError("gcd of an all-zero family is undefined")
    i0, p0 = live[0]
    c, g = content_and_primitive(p0)
    cofs, m = _lowest_terms({i0: IntPoly((1,))}, c)
    for i, p in live[1:]:
        # invariant: sum(f_j * cofs[j]) = m * g over the members seen so far
        h, u, v = _ext_euclid(g, p)
        c, g = content_and_primitive(h)
        cofs = {j: u * cof for j, cof in cofs.items()}
        cofs[i] = v * m
        cofs, m = _lowest_terms(cofs, m * c)
    return g, [cofs.get(i, IntPoly()) for i in range(len(fs))], m


def parse_poly(text: str, var: str | None = None) -> IntPoly:
    """Parse a compact integer polynomial such as ``x^2+x`` or ``3*q^2-1``.

    The grammar is the input language's intpoly, with any single identifier
    as the indeterminate; pass ``var`` to require a specific one.  Raises
    ValueError (a DslSyntaxError with line and column) on malformed text.
    """
    from .parser import parse_intpoly  # not at module level: parser imports IntPoly

    return parse_intpoly(text, var)
