"""Every name a package module imports is used in that module, and every
name in its ``__all__`` exists in it.

No linter ships with the project, so this is the unused-import check.
A name counts as used when the module reads it anywhere, annotations
included, or lists it in ``__all__``.  A name read only inside a quoted
annotation is not seen; no module has one.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vanhove_lab"


def unused_imports(source):
    """Names bound by import statements that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from typing import List, Tuple\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "def f(a: List[int]) -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(2, "sys"), (3, "Tuple")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_export_is_defined(path):
    name = "vanhove_lab" if path.stem == "__init__" \
        else f"vanhove_lab.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", [])
            if not hasattr(module, n)] == []
