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
