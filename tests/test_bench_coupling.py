"""Every package name the benchmark harness reaches for exists.

The harness under `bench/` imports names from the package and wraps module
attributes by name (`bench/spans.py::_patches`), so renaming or deleting one
of them breaks the harness, not the package's own tests.  These checks read
the harness with `ast` and so need none of its imports, sympy included.  The
harness also reads a parsed system's fields, checked here on one system.
"""

import ast
import importlib
from pathlib import Path

from porcfield import IntPoly, parse_system

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    path = BENCH / name
    return ast.parse(path.read_text(), str(path))


def _dotted(node):
    # "porcfield.cli" for the expression porcfield.cli, None for anything else
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def test_gate_imports_exist_in_the_package():
    imported = [
        (node.module, alias.name)
        for node in ast.walk(_tree("gate.py"))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "porcfield"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_every_wrapped_package_attribute_exists():
    tree = _tree("spans.py")
    patches = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_patches"
    )
    # modules imported outside the package, such as sympy, are not checked
    outside = {
        alias.name for node in tree.body if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[0] != "porcfield"
    }
    # the local names _patches binds to package modules: cli = porcfield.cli, ...
    modules = {}
    for node in ast.walk(patches):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            for target, value in zip(node.targets[0].elts, node.value.elts):
                modules[target.id] = _dotted(value)
    assert modules and all(path.startswith("porcfield.") for path in modules.values())
    returned = next(node.value for node in ast.walk(patches) if isinstance(node, ast.Return))
    pairs = [(entry.elts[0].id, entry.elts[1].value) for entry in returned.elts]
    assert all(name in modules or name in outside for name, _ in pairs), pairs
    wrapped = [(modules[name], attr) for name, attr in pairs if name in modules]
    assert len(wrapped) >= 10
    for module, attr in wrapped:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_system_attributes_the_harness_reads_exist():
    # bench/spans.py reads k, n and inequations (on_synthesize, _tuples), and
    # bench/test_bench.py reads equations, inequations, relations and each
    # relation's exponents
    system = parse_system("field GF(q^2); vars x, y; eq x^(q+1) = 1; neq y^-2 = 1")
    assert (system.k, system.n) == (2, 2)
    [eq], [neq] = system.equations, system.inequations
    assert eq.exponents == (IntPoly([1, 1]), IntPoly())
    assert neq.exponents == (IntPoly(), IntPoly([-2]))
    assert system.relations == (eq, neq)
