"""Command-line surface for the counting pipeline.

Subcommands: synthesize, count, gcd-porc, table, verify.  Exit codes:
0 success, 1 input error (bad text, file or option value), 2 scale cap
exceeded, 3 verification mismatch or internal consistency error.
"""

from __future__ import annotations

import argparse
import sys

from ._gfpoly import factorize
from .errors import ConsistencyError, ScaleCapError
from .ffield import brute_force_count, exponent_space_count
from .jsonio import (
    counting_function_to_dict,
    gcd_function_to_dict,
    table_to_dict,
)
from .parser import DslSyntaxError, first_identifier, parse_system
from .polynomial import parse_poly
from .porc import porc_to_residue_table, synthesize_gcd_function
from .system import count_at, counting_eval, synthesize_counting_function

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SCALE = 2
EXIT_MISMATCH = 3


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 by default; 2 is reserved for scale caps here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _add_input_args(sub):
    sub.add_argument("source", nargs="?", help="input file, or '-' for stdin")
    sub.add_argument("--text", help="inline input text instead of a file")


def _add_format(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    root = _ArgumentParser(prog="porcfield")
    subs = root.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synthesize", help="closed-form counting function")
    _add_input_args(s)
    _add_format(s)
    s.set_defaults(func=_cmd_synthesize)

    s = subs.add_parser("count", help="solution count at one q")
    _add_input_args(s)
    _add_format(s)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=_cmd_count)

    s = subs.add_parser("gcd-porc", help="closed form of a gcd of polynomial values")
    _add_input_args(s)
    _add_format(s)
    s.set_defaults(func=_cmd_gcd_porc)

    s = subs.add_parser("table", help="residue-class polynomial table")
    _add_input_args(s)
    _add_format(s)
    s.set_defaults(func=_cmd_table)

    s = subs.add_parser("verify", help="cross-check counts against the oracles")
    _add_input_args(s)
    s.add_argument("--q-range", default="2:9", help="inclusive lo:hi range of q values")
    s.set_defaults(func=_cmd_verify)
    return root


def _read_source(args) -> str:
    if args.text is not None:
        if args.source is not None:
            raise ValueError(f"both a source ({args.source!r}) and --text given; pass one")
        return args.text
    if args.source is None:
        raise ValueError("no input given (pass a file or --text)")
    if args.source == "-":
        return sys.stdin.read()
    try:
        with open(args.source, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _print_json(obj) -> None:
    import json  # imported here so that text output never loads it

    print(json.dumps(obj))


def _cmd_synthesize(args) -> int:
    system = parse_system(_read_source(args))
    cf = synthesize_counting_function(system)
    if args.format == "json":
        _print_json(counting_function_to_dict(cf))
    else:
        print(cf.render())
    return EXIT_OK


def _cmd_count(args) -> int:
    system = parse_system(_read_source(args))
    value = count_at(system, args.q)
    if args.format == "json":
        _print_json({"q": args.q, "count": value})
    else:
        print(value)
    return EXIT_OK


def _cmd_gcd_porc(args) -> int:
    polys = []
    var = None  # the first identifier in the input is every line's indeterminate
    for number, line in enumerate(_read_source(args).splitlines(), 1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        try:
            polys.append(parse_poly(line, var))
        except DslSyntaxError as exc:
            # each line is parsed on its own; report where it sits in the input
            raise DslSyntaxError(exc.message, number, exc.col) from None
        var = var or first_identifier(line)
    if not polys:
        raise ValueError("no polynomials given")
    g = synthesize_gcd_function(polys)
    if args.format == "json":
        _print_json(gcd_function_to_dict(g))
    else:
        print(g.render("x"))
    return EXIT_OK


def _cmd_table(args) -> int:
    system = parse_system(_read_source(args))
    cf = synthesize_counting_function(system)
    modulus, polys = porc_to_residue_table(cf)
    if args.format == "json":
        _print_json(table_to_dict(modulus, polys))
    else:
        print(f"modulus {modulus}")
        for r, poly in enumerate(polys):
            print(f"{r}: {poly.render()}")
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"bad q-range {text!r}, expected lo:hi") from exc
    if lo < 2 or hi < lo:
        raise ValueError(f"bad q-range {text!r}")
    return lo, hi


def _cmd_verify(args) -> int:
    system = parse_system(_read_source(args))
    lo, hi = _parse_range(args.q_range)
    cf = synthesize_counting_function(system)
    mismatches = 0
    for q0 in range(lo, hi + 1):
        expected = count_at(system, q0)
        readings = {"closed-form": counting_eval(cf, q0)}
        try:
            readings["exponent-oracle"] = exponent_space_count(system, q0)
        except ScaleCapError:
            pass
        try:
            readings["field-oracle"] = brute_force_count(system, q0)
        except ScaleCapError:
            pass
        except ValueError as exc:
            # skip a q0 that is not a prime power; the oracle factors q0 only
            # below its cap, so a large prime q0 never reaches this factoring
            if len(factorize(q0)) == 1:
                raise ConsistencyError(f"field oracle failed at q={q0}: {exc}") from exc
        bad = {name: v for name, v in readings.items() if v != expected}
        if bad:
            mismatches += 1
            detail = ", ".join(f"{name}={v}" for name, v in bad.items())
            print(f"q={q0} count={expected} MISMATCH ({detail})")
        else:
            print(f"q={q0} count={expected} ok ({len(readings)} checks)")
    if mismatches:
        print(f"{mismatches} mismatching q values", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def main(argv=None) -> int:
    # an exact count can have more digits than Python's int-to-str limit
    # (4300 from 3.10.7 on, absent before) lets print; lift it for this call
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # DslSyntaxError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScaleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    raise SystemExit(main())
