"""Seeded workload inputs: monomial-system texts and the CLI jobs run on them.

The program under test only ever sees the generated text.  Every system is
k unknowns over GF(q^n) with e equations and s inequations; each exponent
is an integer polynomial in q of the given degree whose coefficients are
drawn uniformly from [-c, c].
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    k: int  # unknowns
    n: int  # extension degree
    e: int  # equations
    s: int  # inequations
    degree: int  # exponent polynomial degree in q
    coeff: int  # coefficients drawn from [-coeff, coeff]


@dataclass(frozen=True)
class Job:
    """One cold CLI process: argv after `python -m porcfield.cli`."""

    kind: str  # "synthesize", "verify", "table" or "count"
    name: str  # system label, for reports
    text: str
    argv: tuple[str, ...]


def _exponent(rng: random.Random, shape: Shape) -> str | None:
    coeffs = [rng.randint(-shape.coeff, shape.coeff) for _ in range(shape.degree + 1)]
    if not any(coeffs):
        return None
    parts = []
    for power in range(shape.degree, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            var = "q" if power == 1 else f"q^{power}"
            body = var if mag == 1 else f"{mag}*{var}"
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + body)
    return "(" + "".join(parts) + ")"


def _monomial(rng: random.Random, shape: Shape) -> str:
    # redraw all-zero rows: an empty monomial is not valid input
    while True:
        factors = []
        for i in range(shape.k):
            exp = _exponent(rng, shape)
            if exp is not None:
                factors.append(f"x{i + 1}^{exp}")
        if factors:
            return "*".join(factors)


def system_text(rng: random.Random, shape: Shape) -> str:
    names = ", ".join(f"x{i + 1}" for i in range(shape.k))
    lines = [f"field GF(q^{shape.n}); vars {names};"]
    lines += [f"eq {_monomial(rng, shape)} = 1;" for _ in range(shape.e)]
    lines += [f"neq {_monomial(rng, shape)} = 1;" for _ in range(shape.s)]
    return "\n".join(lines) + "\n"


def generated_systems(workload: str, shape: Shape, count: int, seed: int) -> list[str]:
    """`count` system texts; the same (workload, seed) always gives the same bytes."""
    rng = random.Random(f"{workload}/{seed}")
    return [system_text(rng, shape) for _ in range(count)]


# Frozen copy of the conftest corpus, so the benchmark does not depend on
# the test suite's files.
CORPUS_TEXTS = {
    "quadratic": (
        "field GF(q^2); vars x1, x2; "
        "eq x1^(q^2-1) = 1; neq x1^(q-1) = 1; eq x1^(q+1)*x2^-2 = 1"
    ),
    "quadratic-eqs": (
        "field GF(q^2); vars x1, x2; eq x1^(q^2-1) = 1; eq x1^(q+1)*x2^-2 = 1"
    ),
    "empty-k1-n2": "field GF(q^2); vars x",
    "empty-k2-n1": "field GF(q^1); vars x, y",
    "empty-k1-n3": "field GF(q^3); vars y",
    "square-roots-of-one": "field GF(q^1); vars x; eq x^2 = 1",
    "cube-vs-frobenius": "field GF(q^2); vars x; eq x^(3*q+3) = 1; neq x^3 = 1",
    "two-inequations": (
        "field GF(q^2); vars x; eq x^(q^2-1) = 1; neq x^(q-1) = 1; neq x^(q+1) = 1"
    ),
    "negative-exponents": "field GF(q^1); vars a, b; eq a^(q-1)*b^-3 = 1; neq b^2 = 1",
    "three-unknowns": (
        "field GF(q^1); vars x1, x2, x3; eq x1^1*x2^1*x3^1 = 1; eq x1^2*x3^-1 = 1"
    ),
    "repeated-factor": "field GF(q^1); vars x; eq x^2*x^3 = 1",
}

_SETUP_TEXT = "field GF(q^1); vars x"
#: Cold process whose time is the benchmark's set-up cost: interpreter,
#: package and numpy imports, and a trivial count.
SETUP_JOB = Job("count", "setup", _SETUP_TEXT, ("count", "--text", _SETUP_TEXT, "--q", "2"))

# Every workload ends with the same three short processes on the worked
# quadratic example (synthesize to JSON, verify, table), so that every layer
# has a non-empty span on every workload.  A change to a layer that a
# workload otherwise bypasses should leave that workload's numbers flat.
TAIL_SYSTEM = "quadratic"
TAIL_Q_RANGE = "2:5"
CORPUS_Q_RANGE = "2:16"

#: Generated workloads: name -> (shape, systems per seed).  The machine's
#: load comes in spells of a few seconds that slow every process by up to
#: half, and each process counts with its fastest run, so a process short
#: enough to fit in a quiet spell gives a steadier minimum than one long one.
#: Several systems per seed also average out the 10-20% that systems of one
#: shape differ in cost.
GENERATED = {
    # 2^5 = 32 inclusion-exclusion subsets per system, one gcd synthesis
    # each; Bezout cofactors dominate, the 3x3 minors are trivial.
    "ie-lattice": (Shape(k=3, n=2, e=1, s=5, degree=1, coeff=4), 6),
    # one subset but C(10, 8) = 45 symbolic 8x8 minors per system.
    "wide-minors": (Shape(k=8, n=2, e=2, s=0, degree=1, coeff=4), 6),
}
CORPUS_WORKLOAD = "verify-corpus"
WORKLOAD_NAMES = (*GENERATED, CORPUS_WORKLOAD)


def _synthesize(name: str, text: str) -> Job:
    return Job("synthesize", name, text, ("synthesize", "--format", "json", "--text", text))


def _verify(name: str, text: str, q_range: str) -> Job:
    return Job("verify", name, text, ("verify", "--q-range", q_range, "--text", text))


def _table(name: str, text: str) -> Job:
    return Job("table", name, text, ("table", "--text", text))


def tail_jobs() -> list[Job]:
    """The three short processes every workload ends with."""
    text = CORPUS_TEXTS[TAIL_SYSTEM]
    return [
        _synthesize(TAIL_SYSTEM, text),
        _verify(TAIL_SYSTEM, text, TAIL_Q_RANGE),
        _table(TAIL_SYSTEM, text),
    ]


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The cold processes one pass of the workload runs, in order."""
    if workload == CORPUS_WORKLOAD:
        jobs = []
        for name, text in CORPUS_TEXTS.items():
            jobs += [_verify(name, text, CORPUS_Q_RANGE), _table(name, text)]
        # the corpus is frozen, so the seed only fixes the process order
        random.Random(f"{workload}/{seed}").shuffle(jobs)
    elif workload in GENERATED:
        shape, count = GENERATED[workload]
        texts = generated_systems(workload, shape, count, seed)
        jobs = [_synthesize(f"system-{i}", text) for i, text in enumerate(texts)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs + tail_jobs()
