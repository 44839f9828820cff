"""Every public function and class member in the package and the oracles is used.

A top-level package function must be referenced by the package or named in
backticks in README; one that only tests call belongs in tests/oracles.py,
and one that nothing calls belongs nowhere.  A public method or property of a
package class must be referenced somewhere in the package or its tests.  A
public oracle must be used by a test module or by another oracle, and every
package attribute README names (`qbounce.grid.load_snapshot`,
`cli.MAX_EVENTS`) must exist.
"""

import ast
import importlib
import re
from pathlib import Path

import qbounce

PACKAGE = Path(qbounce.__file__).parent
TESTS = Path(__file__).parent
README = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")


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


def _public_functions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _readme_spans() -> list[str]:
    return re.findall(r"`([^`\n]+)`", README)


def unused_public_functions() -> list[str]:
    trees = _trees(PACKAGE)
    used = set().union(*map(_referenced, trees.values()))
    documented = {name for span in _readme_spans() for name in re.findall(r"\w+", span)}
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _public_functions(tree) if name not in used | documented]


def unused_public_members() -> list[str]:
    trees = _trees(PACKAGE)
    used = set().union(*map(_referenced, [*trees.values(), *_trees(TESTS).values()]))
    return [f"{module}.{cls.name}.{node.name}"
            for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in used]


def unused_oracles() -> list[str]:
    trees = _trees(TESTS)
    oracles = trees.pop("oracles")
    used = set().union(*map(_referenced, trees.values()))
    # a call from another oracle counts; a function's own body does not
    refs = [(getattr(node, "name", None), _referenced(node)) for node in oracles.body]
    return [name for name in _public_functions(oracles)
            if name not in used and not any(name in r for owner, r in refs if owner != name)]


def unresolved_readme_names() -> list[str]:
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    missing = []
    for span in _readme_spans():
        match = re.match(r"(?:qbounce\.)?(\w+)\.(\w+)", span)
        if match and match[1] in modules:
            module = importlib.import_module(f"qbounce.{match[1]}")
            if not hasattr(module, match[2]):
                missing.append(match[0])
    return missing


def test_every_public_function_is_used_or_documented():
    assert unused_public_functions() == []


def test_every_public_member_is_referenced():
    assert unused_public_members() == []


def test_every_oracle_is_used():
    assert unused_oracles() == []


def test_readme_names_only_existing_attributes():
    assert unresolved_readme_names() == []
