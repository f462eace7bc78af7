"""The package imports only itself and the standard library, as
``dependencies = []`` in pyproject.toml promises; third-party packages such
as sympy, networkx and hypothesis stay in the tests."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "topraag"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {
        (path.name, root)
        for path in modules
        for root in imported_roots(ast.parse(path.read_text(encoding="utf-8")))
        if root != "topraag" and root not in sys.stdlib_module_names
    }
    assert not foreign
