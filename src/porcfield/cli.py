"""Command-line surface for the counting pipeline.

Subcommands: synthesize, count, gcd-porc, table, verify.  Exit codes:
0 success, 1 input error (bad text, file or option value), 2 scale cap
exceeded, 3 verification mismatch or internal consistency error.
"""

import gc
import sys

from ._gfpoly import factorize
from .errors import ConsistencyError, ScaleCapError
from .ffield import brute_force_count, exponent_space_count
from .jsonio import counting_function_to_dict, dumps, gcd_function_to_dict, table_to_dict
from .parser import DslSyntaxError, first_identifier, parse_system
from .polynomial import parse_poly
from .porc import porc_to_residue_table, synthesize_gcd_function
from .system import count_at, counting_eval, synthesize_counting_function

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SCALE = 2
EXIT_MISMATCH = 3


def _read_source(args) -> str:
    if args["text"] is not None:
        if args["source"] is not None:
            raise ValueError(f"both a source ({args['source']!r}) and --text given; pass one")
        return args["text"]
    if args["source"] is None:
        raise ValueError("no input given (pass a file or --text)")
    if args["source"] == "-":
        return sys.stdin.read()
    try:
        with open(args["source"], encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(str(exc)) from exc


def _cmd_synthesize(args) -> int:
    system = parse_system(_read_source(args))
    cf = synthesize_counting_function(system)
    if args["format"] == "json":
        print(dumps(counting_function_to_dict(cf)))
    else:
        print(cf.render())
    return EXIT_OK


def _cmd_count(args) -> int:
    system = parse_system(_read_source(args))
    value = count_at(system, args["q"])
    if args["format"] == "json":
        print(dumps({"q": args["q"], "count": value}))
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
    if args["format"] == "json":
        print(dumps(gcd_function_to_dict(g)))
    else:
        print(g.render("x"))
    return EXIT_OK


def _cmd_table(args) -> int:
    system = parse_system(_read_source(args))
    cf = synthesize_counting_function(system)
    modulus, polys = porc_to_residue_table(cf)
    if args["format"] == "json":
        print(dumps(table_to_dict(modulus, polys)))
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
    lo, hi = _parse_range(args["q-range"])
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


def _format(value: str) -> str:
    if value not in ("text", "json"):
        raise ValueError(f"invalid choice: {value!r} (choose from 'text', 'json')")
    return value


_INPUT, _FORMAT = {"--text": ("TEXT", str, None)}, {"--format": ("text|json", _format, "text")}

#: subcommand -> (handler, help line, {option: (metavar, converter, default)}, required options)
COMMANDS = {
    "synthesize": (_cmd_synthesize, "closed-form counting function", _INPUT | _FORMAT, ()),
    "count": (_cmd_count, "solution count at one q",
              _INPUT | _FORMAT | {"--q": ("Q", int, None)}, ("--q",)),
    "gcd-porc": (_cmd_gcd_porc, "closed form of a gcd of polynomial values", _INPUT | _FORMAT, ()),
    "table": (_cmd_table, "residue-class polynomial table", _INPUT | _FORMAT, ()),
    "verify": (_cmd_verify, "cross-check counts against the oracles at q = LO..HI",
               _INPUT | {"--q-range": ("LO:HI", str, "2:9")}, ()),
}


def _usage(command) -> str:
    """The usage line, then the subcommands or the subcommand's help line."""
    if command is None:
        lines = [f"  {name:<11} {entry[1]}" for name, entry in COMMANDS.items()]
        return "\n".join(["usage: porcfield {" + ",".join(COMMANDS) + "} [SOURCE] ...", *lines])
    help_line, options, required = COMMANDS[command][1:]
    words = [f"{flag} {metavar}" if flag in required else f"[{flag} {metavar}]"
             for flag, (metavar, _, _) in options.items()]
    return " ".join(["usage: porcfield", command, "[SOURCE]", *words]) + "\n  " + help_line


def _exit(command, status: int, message: str = "") -> None:
    """Print the usage (to stderr with an error message), then exit."""
    note = f"porcfield: error: {message}" if message else (
        "SOURCE is a file or '-' for stdin; spell options in full: --opt value or --opt=value")
    print(_usage(command), note, sep="\n", file=sys.stderr if message else sys.stdout)
    raise SystemExit(status)


def _parse_args(argv: list[str]):
    """(handler, {option name: value}) for argv; help exits 0, a usage error 1."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:
        _exit(command, EXIT_OK)
    if command is None:
        _exit(None, EXIT_PARSE, f"invalid subcommand {argv[0]!r}" if argv else "no subcommand")
    handler, _, options, required = COMMANDS[command]
    args = {"source": None} | {flag[2:]: default for flag, (_, _, default) in options.items()}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if (arg == "-" or not arg.startswith("-")) and args["source"] is None:
            args["source"] = arg
            continue
        if flag not in options:  # a second SOURCE lands here too
            _exit(command, EXIT_PARSE, f"unrecognized arguments: {arg}")
        value = value if eq else next(rest, None)
        if value is None:
            _exit(command, EXIT_PARSE, f"argument {flag}: expected one argument")
        try:
            args[flag[2:]] = options[flag][1](value)
        except ValueError as exc:
            _exit(command, EXIT_PARSE, f"argument {flag}: {exc}")
    missing = [flag for flag in required if args[flag[2:]] is None]
    if missing:
        _exit(command, EXIT_PARSE, f"the following arguments are required: {', '.join(missing)}")
    return handler, args


def main(argv=None) -> int:
    if argv is None:
        # the process entry: freeze the start-up heap into the permanent
        # generation, so the full collections at interpreter exit skip it
        gc.freeze()
        argv = sys.argv[1:]
    # an exact count can have more digits than Python's int-to-str limit
    # (4300 from 3.10.7 on, absent before) lets print; lift it for this call
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        handler, args = _parse_args(list(argv))
        return handler(args)
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
