"""Every name a package module imports is used in that module, every
name in its ``__all__`` exists in it, and every private module-level name
is referenced somewhere besides its definition.

No linter ships with the project, so this is the unused-import check.
A name counts as used when the module reads it anywhere, annotations
included, or lists it in ``__all__``.  A name read only inside a quoted
annotation is not seen; no module has one.  A private name counts as
referenced when some file of the package or of the tests reads it, as a
name or an attribute, or imports it.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vanhove_lab"
TESTS = Path(__file__).resolve().parent


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


def private_definitions(tree):
    """Module-level private names (one leading underscore) a module binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        names.add(n.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def references(tree):
    """Names a module reads, as a name or an attribute, or imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_name_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    refs = set().union(*(references(t) for t in trees.values()))
    unreferenced = [(p.name, n) for p in sorted(PACKAGE.glob("*.py"))
                    for n in sorted(private_definitions(trees[p]))
                    if n not in refs]
    assert unreferenced == []
