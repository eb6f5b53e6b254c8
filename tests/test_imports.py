"""Every name imported by a library module is used there or exported,
every private function, class and method is referenced in its own module,
every public one is read outside its own definition by the library, the
benchmark or the acceptance suite, and every parameter is read in its body.

A stdlib ``ast`` scan of ``src/rbymatch/*.py``: deleting code tends to leave
its imports and helpers behind, and nothing else notices an import that is
never read or a helper that nothing calls, or that only unit tests call.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "rbymatch"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
        if isinstance(node, DEFINITIONS):
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


def _reads(tree: ast.AST) -> Counter[str]:
    """Names, attribute names and string constants (``__all__`` entries
    among them) read anywhere in ``tree``."""
    reads: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads[node.value] += 1
    return reads


def unread_publics(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``file line N: name`` for each public function, class and method
    defined in ``sources`` that no code reads but its own definition, in
    ``sources`` or in ``readers``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads: Counter[str] = Counter()
    for tree in [*trees.values(), *map(ast.parse, readers)]:
        reads += _reads(tree)
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and not node.name.startswith("_")
        and reads[node.name] == _reads(node)[node.name]
    ]


def test_scan_flags_an_unread_public():
    sources = {
        "a.py": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def called(): pass\n"
            "def recursive(): recursive()\n"
            "class Box:\n"
            "    def read(self): pass\n"
            "    def unread(self): pass\n"
            "    def _private(self): pass\n"
        ),
        "b.py": "from a import called\ncalled()\n",
    }
    readers = ["import a\na.Box().read()\n"]
    assert unread_publics(sources, readers) == ["a.py line 4: recursive", "a.py line 7: unread"]


def unread_parameters(source: str) -> list[str]:
    """``line N: function(parameter)`` for each parameter of a function or
    lambda that its body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "lambda")
            out += [f"line {node.lineno}: {name}({p.arg})" for p in params if p.arg not in read]
    return out


def test_scan_flags_an_unread_parameter():
    source = (
        "def f(a, b, *rest, c=1, **kw):\n"
        "    b = a\n"
        "    return [kw for _ in rest]\n"
        "class K:\n"
        "    def m(self, x):\n"
        "        def inner(): return x\n"
        "        return inner\n"
        "g = lambda y, z: y\n"
    )
    assert unread_parameters(source) == [
        "line 1: f(b)", "line 1: f(c)", "line 5: m(self)", "line 8: lambda(z)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_parameters_are_read(path):
    assert unread_parameters(path.read_text()) == []


def test_library_publics_are_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]
    assert unread_publics(sources, [path.read_text() for path in readers]) == []
