"""Every public function in the package is used by it or exported from it.

A top-level function that only tests call belongs in tests/oracles.py; one
that nothing calls belongs nowhere.
"""

import ast
from pathlib import Path

import qbounce

PACKAGE = Path(qbounce.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _referenced(tree: ast.Module) -> set[str]:
    """Names a module loads, directly or as an attribute of something."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_public_functions() -> list[str]:
    trees = _trees()
    used = set().union(*map(_referenced, trees.values()))
    exported = {alias.asname or alias.name
                for node in trees["__init__"].body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return [f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in used and node.name not in exported]


def test_every_public_function_is_used_or_exported():
    assert unused_public_functions() == []
