"""Correctness gate for CLI outputs, run outside the timed region.

`check_output` returns None for a correct output and a one-line reason
otherwise.  A non-zero exit code is always a failure: the workloads are
chosen so that every process should succeed, and a cap raising an error on
a generated system is a defect to report, not an input to skip.
"""

from __future__ import annotations

import json
import re

from porcfield import ScaleCapError, count_at, exponent_space_count, parse_system
from porcfield.jsonio import counting_function_from_dict
from porcfield.polynomial import parse_poly

from workloads import Job

#: q values at which a synthesized closed form is compared with count_at,
#: and with the exponent-space oracle wherever that fits its tuple cap.
GATE_QS = (2, 3, 4, 5, 6, 7, 8, 9, 16)

_VERIFY_LINE = re.compile(r"q=(\d+) count=\d+ ok \(\d+ checks\)")


def _option(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_synthesize(job: Job, stdout: str) -> str | None:
    system = parse_system(job.text)
    cf = counting_function_from_dict(json.loads(stdout))
    for q in GATE_QS:
        want = count_at(system, q)
        got = cf(q)
        if got != want:
            return f"closed form gives {got} at q={q}, count_at gives {want}"
        try:
            oracle = exponent_space_count(system, q)
        except ScaleCapError:
            continue
        if oracle != want:
            return f"exponent oracle gives {oracle} at q={q}, count_at gives {want}"
    return None


def _check_verify(job: Job, stdout: str) -> str | None:
    lo, hi = map(int, _option(job.argv, "--q-range").split(":"))
    lines = stdout.splitlines()
    if len(lines) != hi - lo + 1:
        return f"verify printed {len(lines)} lines for {hi - lo + 1} q values"
    for q, line in zip(range(lo, hi + 1), lines):
        m = _VERIFY_LINE.fullmatch(line)
        if m is None or int(m.group(1)) != q:
            return f"verify line is not ok for q={q}: {line!r}"
    return None


def _check_table(job: Job, stdout: str) -> str | None:
    system = parse_system(job.text)
    head, *rows = stdout.splitlines()
    if not head.startswith("modulus "):
        return f"table header {head!r}"
    modulus = int(head.split()[1])
    if len(rows) != modulus:
        return f"table has {len(rows)} rows for modulus {modulus}"
    for r, row in enumerate(rows):
        label, _, poly = row.partition(": ")
        if label != str(r):
            return f"table row {r} is labelled {label!r}"
        q = r
        while q < 2:
            q += modulus
        want = count_at(system, q)
        got = parse_poly(poly, "q")(q)
        if got != want:
            return f"table row {r} gives {got} at q={q}, count_at gives {want}"
    return None


def _check_count(job: Job, stdout: str) -> str | None:
    want = count_at(parse_system(job.text), int(_option(job.argv, "--q")))
    if stdout.strip() != str(want):
        return f"count printed {stdout.strip()!r}, count_at gives {want}"
    return None


_CHECKS = {
    "synthesize": _check_synthesize,
    "verify": _check_verify,
    "table": _check_table,
    "count": _check_count,
}


def check_output(job: Job, returncode: int, stdout: str) -> str | None:
    """None when the process succeeded and its output is correct, else why not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return _CHECKS[job.kind](job, stdout)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return f"unreadable {job.kind} output: {type(exc).__name__}: {exc}"
