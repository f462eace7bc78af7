"""The oracles in tests/oracles.py stay apart from the fast paths they check:
they reach topraag only through its public names, and the package never
imports them."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topraag"
ORACLES = ROOT / "tests" / "oracles.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def private_topraag_names(tree):
    """Underscore names the tree imports from topraag, or reads as
    attributes of a topraag module it imported."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "topraag":
                    yield from (part for part in alias.name.split(".") if part.startswith("_"))
                    modules.add(alias.asname or "topraag")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "topraag":
            yield from (part for part in node.module.split(".") if part.startswith("_"))
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield alias.name
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def imports_oracles(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            return True
    return False


def test_oracles_use_only_public_topraag_names():
    assert not sorted(private_topraag_names(parse(ORACLES)))


def test_package_never_imports_the_oracles():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert not [path.name for path in modules if imports_oracles(parse(path))]


def test_the_checks_see_what_they_forbid():
    tree = ast.parse(
        "from topraag.words import _shuffle_reduce\n"
        "from topraag import words as W\n"
        "W._lex_least\n"
    )
    assert sorted(private_topraag_names(tree)) == ["W._lex_least", "_shuffle_reduce"]
    assert imports_oracles(ast.parse("from . import oracles"))
    assert imports_oracles(ast.parse("import oracles"))
    assert not imports_oracles(ast.parse("from . import words"))
