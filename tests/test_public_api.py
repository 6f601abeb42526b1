"""The package's public names, runtime dependencies, documented caps and options, pinned."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import porcfield

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "ConsistencyError",
    "CountingFunction",
    "DslSyntaxError",
    "FieldContext",
    "GcdPorcFunction",
    "IntPoly",
    "MonomialRelation",
    "MonomialSystem",
    "PorcExpression",
    "ScaleCapError",
    "bezout_cofactors",
    "brute_force_count",
    "build_relation_matrix",
    "content_and_primitive",
    "count_at",
    "counting_eval",
    "evaluate_matrix",
    "exponent_space_count",
    "make_field",
    "make_system",
    "maximal_minors",
    "parse_poly",
    "parse_system",
    "porc_eval",
    "porc_to_residue_table",
    "smith_normal_form",
    "split_prime_power",
    "synthesize_counting_function",
    "synthesize_gcd_function",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 29
    assert sorted(porcfield.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    module = importlib.import_module("porcfield")
    for name in PUBLIC_NAMES:
        assert getattr(module, name) is not None, name


def test_one_polynomial_class():
    import porcfield.polynomial

    assert not hasattr(porcfield, "RatPoly")
    assert not hasattr(porcfield.polynomial, "RatPoly")


def test_helpers_no_caller_reaches_are_gone():
    # the indicator construction lives in the reference oracle; pow(a, -1)
    # inverts, one filter over elements() lists the nonzero elements, and
    # porc_eval evaluates an expression
    import porcfield.porc

    for name in ("build_indicator", "porc_canonicalize"):
        assert not hasattr(porcfield.porc, name), name
    for name in ("inverse", "nonzero_elements"):
        assert not hasattr(porcfield.FieldContext, name), name
    assert not hasattr(porcfield.IntPoly, "__pow__")
    assert not callable(porcfield.PorcExpression(0))


def _absolute_imports():
    """(file name, module name) for every absolute import in the package's source."""
    for path in sorted((ROOT / "src" / "porcfield").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, alias.name
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module


def test_package_imports_only_the_standard_library():
    for filename, name in _absolute_imports():
        assert name.split(".")[0] in sys.stdlib_module_names, (filename, name)


def test_package_imports_neither_dataclasses_nor_typing():
    # both cost a cold process milliseconds of imports; site may load typing
    # anyway, so sys.modules cannot show a package import of it.  Every
    # annotation of the package evaluates under Python 3.10, so none needs
    # the __future__ import that would postpone it
    for filename, name in _absolute_imports():
        assert name.split(".")[0] not in {"__future__", "dataclasses", "typing"}, (filename, name)


def test_no_runtime_dependencies_are_declared():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


CAP_NAME = re.compile(r"MAX_\w+|\w+_(?:CAP|BUDGET|LIMIT)")


def _package_cap_values():
    """Module-level cap constants of the package's source, name to value."""
    values = {}
    for path in sorted((ROOT / "src" / "porcfield").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and CAP_NAME.fullmatch(target.id):
                        module = importlib.import_module(f"porcfield.{path.stem}")
                        values[target.id] = getattr(module, target.id)
    return values


def _package_caps():
    """Module-level cap constants of the package's source."""
    return set(_package_cap_values())


def _readme_cap_list():
    """The README's bulleted list of size caps."""
    text = (ROOT / "README.md").read_text()
    items = text.index("\n\n- ", text.index("Every size cap exits 2"))
    return text[items : text.index("\n\n", items + 2)]


def _readme_caps():
    """Backticked cap names in the README's bulleted list of size caps."""
    cap_list = _readme_cap_list()
    return {name for name in re.findall(r"`(\w+)`", cap_list) if CAP_NAME.fullmatch(name)}


def _readme_cap_values():
    """Each cap bullet's name and the value it gives: (10^6), (20,000), ..."""
    values = {}
    for name, shown in re.findall(r"^- `(\w+)` \(([\d,^]+)\)", _readme_cap_list(), re.M):
        base, _, exponent = shown.replace(",", "").partition("^")
        values[name] = int(base) ** int(exponent or 1)
    return values


def test_every_cap_is_in_the_readme_and_every_listed_cap_exists():
    caps, listed = _package_caps(), _readme_caps()
    assert {"TERM_BUDGET", "MAX_TUPLES"} <= caps
    assert not caps - listed, "caps missing from the README"
    assert not listed - caps, "README caps the package does not define"


def test_every_readme_cap_value_is_the_constant():
    values = _readme_cap_values()
    assert len(values) == 5
    assert values == _package_cap_values()


def _cli_options():
    """Every option of every subcommand in ``cli.COMMANDS``, and --help, which each takes."""
    from porcfield.cli import COMMANDS

    return {flag for _, _, options, _ in COMMANDS.values() for flag in options} | {"--help"}


def _readme_options():
    """The --options named in the README's "Command line" section."""
    text = (ROOT / "README.md").read_text()
    start = text.index("\n## Command line\n")
    section = text[start : text.index("\n## ", start + 1)]
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))


def test_every_cli_option_is_in_the_readme_and_every_listed_option_exists():
    options, listed = _cli_options(), _readme_options()
    assert {"--text", "--format", "--q", "--q-range"} <= options
    assert not options - listed, "options missing from the README"
    assert not listed - options, "README options the CLI does not take"
