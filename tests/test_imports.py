"""Every name imported by a library module is used there or exported, and
every private function, class and method is referenced in its own module.

A stdlib ``ast`` scan of ``src/rbymatch/*.py``: deleting code tends to leave
its imports and private helpers behind, and nothing else notices an import
that is never read or a helper that nothing calls.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rbymatch"


def _imported(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}  # type: ignore[attr-defined]
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [
        f"line {line}: {name}"
        for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_scan_flags_an_unused_import():
    source = "import os\nfrom math import floor, gcd\n__all__ = ['gcd']\nos.sep\n"
    assert unused_imports(source) == ["line 2: floor"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_privates(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _is_private(node.name):
                defined.setdefault(node.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(defined.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_scan_flags_an_unreferenced_private():
    source = (
        "def _used(): pass\n"
        "def _unused(): pass\n"
        "class _Kept:\n"
        "    def __init__(self): self._called()\n"
        "    def _called(self): pass\n"
        "    def _dead(self): pass\n"
        "_used(); _Kept()\n"
    )
    assert unreferenced_privates(source) == ["line 2: _unused", "line 6: _dead"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_privates_are_referenced(path):
    assert unreferenced_privates(path.read_text()) == []
