"""Checks on the library's source text, read with the standard `ast` module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rplaces"


def unused_imports(source: str) -> list:
    """(line, name) for each name the module imports and never reads.

    A name counts as read when it appears as a bare name anywhere in the
    module, annotations included; a quoted annotation does not count, as
    the modules postpone annotations and need no quotes."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from operator import add, mul as times\n"
              "from typing import Optional\n"
              "def f(x: Optional[int]) -> int:\n"
              "    return add(x, math.floor(2.5))\n")
    assert unused_imports(source) == [(2, "os"), (3, "times")]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def unread_helpers(sources: dict) -> list:
    """(file, line, name) for each `_name` function or class at module
    level, and each `_name` method, that no module of `sources` ({file
    name: source}) reads.

    A module-level helper is read when its own module, or a module that
    imports it from there, loads it as a bare name, or when any module
    loads it as an attribute; a method is read when any module loads it as
    an attribute.  Loads inside a definition of the same name do not
    count, so a helper that only calls itself is unread, and an import
    alone is no read."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []                        # (file, line, name, node, is a method)
    for file, tree in trees.items():
        for node in tree.body:
            methods = [d for d in node.body if isinstance(d, functions)] \
                if isinstance(node, ast.ClassDef) else []
            for d in [node, *methods]:
                if isinstance(d, (*functions, ast.ClassDef)) and \
                        _is_private(d.name):
                    defs.append((file, d.lineno, d.name, d, d is not node))
    own: dict = {}
    for _, _, name, d, _ in defs:
        own.setdefault(name, set()).update(map(id, ast.walk(d)))
    bare = {file: set() for file in trees}   # file -> bare names it loads
    attrs = set()
    imported = set()                 # (importing file, source stem, name)
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.update((file, node.module.split(".")[-1], a.name)
                                for a in node.names)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and \
                    id(node) not in own.get(node.id, ()):
                bare[file].add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load) and \
                    id(node) not in own.get(node.attr, ()):
                attrs.add(node.attr)

    def read(file: str, name: str, method: bool) -> bool:
        if name in attrs:
            return True
        if method:
            return False
        stem = file.removesuffix(".py")
        return name in bare[file] or any(
            name in bare[other] for other, source, n in imported
            if source == stem and n == name)
    return sorted((file, line, name) for file, line, name, _, method in defs
                  if not read(file, name, method))


def test_no_unread_private_helpers():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unread_helpers(sources) == []


def test_unread_private_helpers_are_found():
    sources = {
        "a.py": ("def _used():\n"
                 "    pass\n"
                 "def _unused():\n"
                 "    pass\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1)\n"
                 "class _Kept:\n"
                 "    def _called(self):\n"
                 "        return self._helper()\n"
                 "    def _helper(self):\n"
                 "        self._stored = 1\n"
                 "    def __eq__(self, other):\n"
                 "        return True\n"
                 "def _shadowed():\n"
                 "    pass\n"),
        # b reads a name that a defines too, which is no read of a's
        "b.py": ("from a import _used, _unused, _Kept\n"
                 "def _shadowed():\n"
                 "    pass\n"
                 "_used()\n"
                 "_shadowed()\n"
                 "x = _Kept\n")}
    assert unread_helpers(sources) == [
        ("a.py", 3, "_unused"), ("a.py", 5, "_recursive"),
        ("a.py", 8, "_called"), ("a.py", 14, "_shadowed")]
