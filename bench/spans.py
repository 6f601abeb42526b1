"""In-process traced run: spans and counters around porcfield's layer calls.

The pipeline resolves its callees through module-level names, so wrapping
those names (and `sympy.factorint`, which `porcfield.porc` imports at call
time) puts a span around every call into a layer without touching the
program.  Spans nest; a span's self time is its duration minus the time its
child spans cover.  Everything stays in memory until the run reports.
"""

from __future__ import annotations

import contextlib
import io
import signal
import time
from collections import Counter, defaultdict

import sympy

import porcfield.cli
import porcfield.porc
import porcfield.system


def _sign_normalized(p):
    return p if not p or p.leading > 0 else -p


def _tuples(system, q0) -> int:
    return (q0**system.n - 1) ** system.k


class Recorder:
    """Inclusive and self time per span name, plus named counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.digits_max = 0
        self._child_time: list[float] = []
        # per CLI call: distinct minors and families seen so far
        self._minors: set = set()
        self._families: set = set()

    def wrap(self, name, fn, on_result=None):
        def wrapped(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._child_time.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                self.counts[name] += 1
                if self._child_time:
                    self._child_time[-1] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapped

    # counters, recorded after the wrapped call returns

    def on_synthesize(self, args, result):
        self.counts["subsets"] += 2 ** len(args[0].inequations)

    def on_minors(self, args, result):
        self.counts["minors"] += len(result)
        self._minors.update(_sign_normalized(p) for p in result)

    def on_family(self, args, result):
        self.counts["families"] += 1
        self._families.add(tuple(args[0]))
        self.counts["terms_out"] += len(result.d.terms)

    def on_bezout(self, args, result):
        modulus = result[2]
        self.digits_max = max(self.digits_max, len(str(modulus)))
        cap = porcfield.porc.LITERAL_MODULUS_CAP
        if 1 < modulus <= cap:
            self.counts["route_literal"] += 1
        elif modulus > cap:
            self.counts["route_factored"] += 1

    def on_oracle(self, args, result):
        self.counts["tuples"] += _tuples(args[0], args[1])

    def end_cli_call(self):
        self.counts["minors_distinct"] += len(self._minors)
        self.counts["families_distinct"] += len(self._families)
        self._minors.clear()
        self._families.clear()


def _patches(rec: Recorder):
    """(module, attribute, span name, counter hook) for every wrapped call."""
    cli, system, porc = porcfield.cli, porcfield.system, porcfield.porc
    return [
        (cli, "parse_system", "parser.parse_system", None),
        (cli, "synthesize_counting_function", "system.synthesize_counting_function",
         rec.on_synthesize),
        (system, "maximal_minors", "relmat.maximal_minors", rec.on_minors),
        (system, "synthesize_gcd_function", "porc.synthesize_gcd_function", rec.on_family),
        (porc, "bezout_cofactors", "polynomial.bezout_cofactors", rec.on_bezout),
        (sympy, "factorint", "porc.factorint", None),
        (cli, "porc_to_residue_table", "porc.porc_to_residue_table", None),
        (cli, "count_at", "system.count_at", None),
        (system, "smith_normal_form", "snf.smith_normal_form", None),
        (cli, "counting_eval", "system.counting_eval", None),
        (cli, "brute_force_count", "ffield.brute_force_count", rec.on_oracle),
        (cli, "exponent_space_count", "ffield.exponent_space_count", rec.on_oracle),
        (cli, "counting_function_to_dict", "jsonio.counting_function_to_dict", None),
    ]


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every layer entry point for the duration of the block."""
    saved = []
    try:
        for module, attr, name, hook in _patches(rec):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(name, original, hook))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _time_limit(signum, frame):
    raise TimeoutError("in-process CLI call exceeded its time limit")


def run_cli(argv, timeout: float) -> tuple[int, str]:
    """porcfield.cli.main in this process; returns (exit code, stdout).

    A call still running after `timeout` seconds is interrupted and reported
    with exit code -1.  Must run in the main thread (it uses SIGALRM).
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _time_limit)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = porcfield.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code if isinstance(exc.code, int) else 1
    except TimeoutError:
        code = -1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


def run_pass(jobs, rec: Recorder | None, timeout: float):
    """One in-process pass over the jobs, traced when a recorder is given.

    Returns (seconds, [(exit code, stdout)]).
    """
    results = []
    t0 = time.perf_counter()
    if rec is None:
        for job in jobs:
            results.append(run_cli(job.argv, timeout))
    else:
        with installed(rec):
            for job in jobs:
                results.append(run_cli(job.argv, timeout))
                rec.end_cli_call()
    return time.perf_counter() - t0, results


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c, t = rec.counts, rec.total

    def ratio(part, whole):
        return part / whole if whole else 0.0

    return {
        "parser.parse_system_s": (t["parser.parse_system"], "s"),
        "relmat.maximal_minors_s": (t["relmat.maximal_minors"], "s"),
        "relmat.minors": (c["minors"], "count"),
        "relmat.minors_distinct_ratio": (ratio(c["minors_distinct"], c["minors"]), "ratio"),
        "polynomial.bezout_cofactors_s": (t["polynomial.bezout_cofactors"], "s"),
        "polynomial.modulus_digits_max": (rec.digits_max, "digits"),
        "porc.synthesize_gcd_function_self_s": (
            rec.self_time["porc.synthesize_gcd_function"], "s"),
        "porc.families": (c["families"], "count"),
        "porc.families_distinct_ratio": (ratio(c["families_distinct"], c["families"]), "ratio"),
        "porc.route_literal": (c["route_literal"], "count"),
        "porc.route_factored": (c["route_factored"], "count"),
        "porc.factorint_s": (t["porc.factorint"], "s"),
        "porc.factorint_calls": (c["porc.factorint"], "count"),
        "porc.terms_out": (c["terms_out"], "count"),
        "porc.porc_to_residue_table_s": (t["porc.porc_to_residue_table"], "s"),
        "system.subsets": (c["subsets"], "count"),
        "system.count_at_s": (t["system.count_at"], "s"),
        "snf.smith_normal_form_s": (t["snf.smith_normal_form"], "s"),
        "snf.calls": (c["snf.smith_normal_form"], "count"),
        "system.counting_eval_s": (t["system.counting_eval"], "s"),
        "ffield.brute_force_count_s": (t["ffield.brute_force_count"], "s"),
        "ffield.exponent_space_count_s": (t["ffield.exponent_space_count"], "s"),
        "ffield.tuples": (c["tuples"], "count"),
        "jsonio.counting_function_to_dict_s": (t["jsonio.counting_function_to_dict"], "s"),
    }
