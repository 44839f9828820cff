"""Every public function and class member in the package is used.

A top-level function must be used by the package or exported from it; one
that only tests call belongs in tests/oracles.py, and one that nothing calls
belongs nowhere.  A public method or property of a package class must be
referenced somewhere in the package or its tests.
"""

import ast
from pathlib import Path

import qbounce

PACKAGE = Path(qbounce.__file__).parent
TESTS = Path(__file__).parent


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


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
    trees = _trees(PACKAGE)
    used = set().union(*map(_referenced, trees.values()))
    exported = {alias.asname or alias.name
                for node in trees["__init__"].body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    return [f"{module}.{node.name}"
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in used and node.name not in exported]


def unused_public_members() -> list[str]:
    trees = _trees(PACKAGE)
    used = set().union(*map(_referenced, [*trees.values(), *_trees(TESTS).values()]))
    return [f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in used]


def test_every_public_function_is_used_or_exported():
    assert unused_public_functions() == []


def test_every_public_member_is_referenced():
    assert unused_public_members() == []
