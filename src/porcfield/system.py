"""Monomial systems and their exact counting functions.

A system fixes k unknowns ranging over the nonzero elements of the degree-n
extension field, a tuple of monomial equations and one of inequations, whose
exponents are integer polynomials in q.  Counting proceeds by inclusion-exclusion over
the inequations: each subset contributes the solution count of a pure
equation system, obtained from the elementary divisors of its relation
matrix, and symbolically from the gcd of the matrix's maximal minors.  Every
subset's matrix is a selection of rows of one full matrix (the equations,
every inequation and the membership rows): count_at evaluates that matrix
once per q, and the synthesis expands it into maximal minors once.  Before
either builds the matrix, the work the subsets ask for is computed from the
system's shape and checked against relmat.WORK_BUDGET, the budget that also
bounds one maximal_minors call.
"""

from itertools import combinations
from math import comb, prod

from . import relmat
from ._record import Record
from .errors import ConsistencyError, ScaleCapError
from .polynomial import IntPoly, _int, _signed_sum
from .porc import PORC_ONE, GcdPorcFunction, _gcd_fold, synthesize_gcd_function
from .relmat import build_relation_matrix, evaluate_matrix, maximal_minors
from .snf import smith_normal_form


class MonomialRelation(Record):
    """One constraint: the monomial with these exponents equals (or differs from) 1."""

    __slots__ = ("exponents",)
    exponents: tuple[IntPoly, ...]


class MonomialSystem(Record):
    """k unknowns over the degree-n extension, plus the equations and the inequations.

    Membership constraints are implicit; they are appended to every
    relation matrix and never stored here.
    """

    __slots__ = ("k", "n", "equations", "inequations", "variables")
    _defaults = {"equations": (), "inequations": (), "variables": ()}
    k: int
    n: int
    equations: tuple[MonomialRelation, ...]
    inequations: tuple[MonomialRelation, ...]
    variables: tuple[str, ...]

    def __post_init__(self):
        if _int(self.k, "k") < 1 or _int(self.n, "n") < 1:
            raise ValueError("need k >= 1 unknowns and extension degree n >= 1")
        if not self.variables:
            object.__setattr__(
                self, "variables", tuple(f"x{i + 1}" for i in range(self.k))
            )
        if len(self.variables) != self.k:
            raise ValueError("variable name count differs from k")
        for rel in self.relations:
            if len(rel.exponents) != self.k:
                raise ValueError("relation exponent vector has wrong length")

    @property
    def relations(self) -> tuple[MonomialRelation, ...]:
        """The equations, then the inequations."""
        return (*self.equations, *self.inequations)


def make_system(k: int, n: int, eqs=(), neqs=(), variables=()) -> MonomialSystem:
    """Convenience constructor from plain exponent rows (ints or IntPoly)."""

    def rel(row):
        exps = tuple(p if isinstance(p, IntPoly) else IntPoly.constant(p) for p in row)
        return MonomialRelation(exps)

    return MonomialSystem(k, n, tuple(map(rel, eqs)), tuple(map(rel, neqs)), tuple(variables))


class CountingFunction(Record):
    """Signed sum of closed-form gcd functions; one term per inequation subset."""

    __slots__ = ("terms",)
    terms: tuple[tuple[int, GcdPorcFunction], ...]

    def __call__(self, q0: int) -> int:
        return counting_eval(self, q0)

    def render(self, var: str = "q") -> str:
        """The terms' closed forms joined as ``a - b + c``; a minus sign binds its whole term.

        Only a term with d = 1 and an f of several terms prints as a bare
        sum, so only that term is parenthesized after a minus sign.
        """
        terms = []
        for sign, g in self.terms:
            body = g.render(var)
            if sign < 0 and g.d == PORC_ONE and sum(1 for c in g.f.coeffs if c) > 1:
                body = f"({body})"
            terms.append((sign, body))
        return _signed_sum(terms, spaced=True)

    def __str__(self):
        return self.render()


def _reduced(p: IntPoly, n: int) -> IntPoly:
    """p modulo q^n - 1: the coefficient of q^i moves to q^(i mod n)."""
    return IntPoly([sum(p.coeffs[i::n]) for i in range(n)])


def _inclusion_exclusion(system: MonomialSystem):
    """The rows of the system's full relation matrix, and its inclusion-exclusion subsets.

    The rows are the equations, every inequation and the k membership rows,
    in that order.  The subsets follow in ascending bitmask order over the
    inequations, each as (sign, rows): rows are the sorted indices of the
    equations, the subset's inequations and the membership rows, so
    selecting them gives the subset's own relation matrix.

    Each user exponent is reduced modulo q^n - 1 (``_reduced``).  Every
    subset keeps all k membership rows (q^n - 1)*e_i, and the reduction
    subtracts multiples of them from the user rows: a unimodular row
    operation over Z[q], so each subset's lattice at every q, and the ideal
    of its maximal minors, stay as they were.  Degrees and the integers of
    the synthesis stay small however high the exponents' powers of q.

    A subset with j of the s inequations has e + j + k rows, so its family
    has C(e+j+k, k) maximal minors.  Their sum over the subsets,
    W = sum_j C(s, j)*C(e+j+k, k), is at least 2^s, the number of Smith
    normal forms count_at takes, and at least C(e+s+k, k), the full
    matrix's minors, so maximal_minors never refuses a matrix built here.
    W above WORK_BUDGET raises ScaleCapError before any matrix is built.
    W is summed in the form sum_i C(s, i)*C(e+k, k-i)*2^(s-i),
    i <= min(s, k) (Vandermonde's identity on C(e+j+k, k)), whose few terms
    stay cheap for any s.
    """
    e, s, k, n = len(system.equations), len(system.inequations), system.k, system.n
    work = sum(comb(s, i) * comb(e + k, k - i) * 2 ** (s - i) for i in range(min(s, k) + 1))
    if work > relmat.WORK_BUDGET:
        # Python refuses to convert an int of over 4300 digits to decimal
        shown = work if work.bit_length() <= 64 else f"at least 2^{work.bit_length() - 1}"
        raise ScaleCapError(
            f"inclusion-exclusion blow-up: {shown} family members (k={k}, e={e}, s={s}) "
            f"exceed WORK_BUDGET = {relmat.WORK_BUDGET}"
        )
    matrix = build_relation_matrix(
        [[_reduced(p, n) for p in r.exponents] for r in system.relations], k, n
    )
    equations = tuple(range(e))
    membership = tuple(range(e + s, e + s + k))

    def subsets():
        for mask in range(1 << s):
            sign = -1 if bin(mask).count("1") % 2 else 1
            chosen = tuple(e + i for i in range(s) if mask >> i & 1)
            yield sign, equations + chosen + membership

    return matrix, subsets()


def count_at(system: MonomialSystem, q0: int) -> int:
    """Number of solutions at the concrete q0: one Smith normal form per subset."""
    if _int(q0, "q") < 2:
        raise ValueError("q must be at least 2")
    matrix, subsets = _inclusion_exclusion(system)
    evaluated = evaluate_matrix(matrix, q0)
    total = 0
    for sign, rows in subsets:
        divisors = smith_normal_form([evaluated[i] for i in rows])
        if 0 in divisors:
            raise ConsistencyError("rank-deficient relation matrix at q >= 2")
        total += sign * prod(divisors)
    if total < 0:
        raise ConsistencyError("negative inclusion-exclusion total")
    return total


def synthesize_counting_function(system: MonomialSystem) -> CountingFunction:
    """Closed PORC form of q -> count_at(system, q).

    One signed term per inequation subset, in ascending bitmask order; each
    term is synthesized from the maximal minors of that subset's relation
    matrix.  Those are the minors of the full matrix on the subset's rows,
    all computed in one expansion.  The gcd fold walks the subset lattice: a
    subset's parent is its mask without the top bit, which lacks just the top
    inequation's row, so every minor of the parent is a minor of the child.
    Each subset resumes its parent's fold state (f, m) and folds in only the
    minors that use its new row.
    """
    e, k = len(system.equations), system.k
    matrix, subsets = _inclusion_exclusion(system)
    table = dict(zip(combinations(range(len(matrix)), k), maximal_minors(matrix)))
    folds: list[tuple[IntPoly, int]] = []  # fold state per mask
    terms = []
    for mask, (sign, rows) in enumerate(subsets):
        minors = [table[rs] for rs in combinations(rows, k)]
        if mask:
            top = e + mask.bit_length() - 1
            fresh = [table[rs] for rs in combinations(rows, k) if top in rs]
            parent = mask ^ (1 << (mask.bit_length() - 1))
            fold = _gcd_fold(fresh, *folds[parent])
        else:
            fold = _gcd_fold(minors)
        folds.append(fold)
        terms.append((sign, synthesize_gcd_function(minors, fold=fold)))
    return CountingFunction(terms=tuple(terms))


def counting_eval(cf: CountingFunction, q0: int) -> int:
    """Exact value of the counting function at q0 (any integer >= 2)."""
    if _int(q0, "q") < 2:
        raise ValueError("q must be at least 2")
    total = sum(sign * g.value_at(q0) for sign, g in cf.terms)
    if total < 0:
        raise ConsistencyError("counting function value is negative")
    return total
