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
    "EQ",
    "FieldContext",
    "GcdPorcFunction",
    "IntPoly",
    "MonomialRelation",
    "MonomialSystem",
    "NEQ",
    "PorcExpression",
    "RelationMatrix",
    "ScaleCapError",
    "bezout_cofactors",
    "brute_force_count",
    "build_indicator",
    "build_relation_matrix",
    "content_and_primitive",
    "count_at",
    "counting_eval",
    "divisor_product",
    "evaluate_matrix",
    "exponent_space_count",
    "make_field",
    "make_system",
    "maximal_minors",
    "parse_poly",
    "parse_system",
    "porc_canonicalize",
    "porc_eval",
    "porc_to_residue_table",
    "smith_normal_form",
    "split_prime_power",
    "synthesize_counting_function",
    "synthesize_gcd_function",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert sorted(porcfield.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    module = importlib.import_module("porcfield")
    for name in PUBLIC_NAMES:
        assert getattr(module, name) is not None, name


def test_one_polynomial_class():
    import porcfield.polynomial

    assert not hasattr(porcfield, "RatPoly")
    assert not hasattr(porcfield.polynomial, "RatPoly")


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
    # anyway, so sys.modules cannot show a package import of it
    for filename, name in _absolute_imports():
        assert name.split(".")[0] not in {"dataclasses", "typing"}, (filename, name)


def test_no_runtime_dependencies_are_declared():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


CAP_NAME = re.compile(r"MAX_\w+|\w+_(?:CAP|BUDGET|LIMIT)")


def _package_caps():
    """Module-level cap constants of the package's source."""
    names = set()
    for path in sorted((ROOT / "src" / "porcfield").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if CAP_NAME.fullmatch(name)}


def _readme_caps():
    """Backticked cap names in the README's bulleted list of size caps."""
    text = (ROOT / "README.md").read_text()
    items = text.index("\n\n- ", text.index("Every size cap exits 2"))
    cap_list = text[items : text.index("\n\n", items + 2)]
    return {name for name in re.findall(r"`(\w+)`", cap_list) if CAP_NAME.fullmatch(name)}


def test_every_cap_is_in_the_readme_and_every_listed_cap_exists():
    caps, listed = _package_caps(), _readme_caps()
    assert {"CLASS_BUDGET", "TERM_BUDGET", "MAX_FIELD_ORDER"} <= caps
    assert not caps - listed, "caps missing from the README"
    assert not listed - caps, "README caps the package does not define"


def _cli_options():
    """Every option string of every subcommand of ``build_parser()``, help aside."""
    from porcfield.cli import build_parser

    [subcommands] = [
        action.choices for action in build_parser()._actions if action.choices
    ]
    return {
        flag
        for sub in subcommands.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


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
