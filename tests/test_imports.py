"""Every name a package module imports is used in that module, every
name in its ``__all__`` exists in it, and every private module-level name
is referenced somewhere besides its definition, and every defaulted
parameter or record field is passed by some call; and the command line
loads scipy and mpmath only for the commands that use them.

No linter ships with the project, so this is the unused-import check.
A name counts as used when the module reads it anywhere, annotations
included, or lists it in ``__all__``.  A name read only inside a quoted
annotation is not seen; no module has one.  A private name counts as
referenced when some file of the package or of the tests reads it, as a
name or an attribute, or imports it.  A default counts as passed when
some call in the package, the tests or the bench names the function or
record (by name or attribute; ``cls`` inside its class) and passes that
parameter by keyword, by position, or through ``*``/``**`` unpacking;
``replace``/``_replace`` calls pass their keywords to every record.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vanhove_lab"
TESTS = Path(__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def _callee(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def is_record(cls):
    """A dataclass or a NamedTuple."""
    return any(_callee(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list) \
        or any(_callee(b) == "NamedTuple" for b in cls.bases)


def defaulted_parameters(tree):
    """``(callee, name, position, field)`` of every defaulted parameter of
    a public function or method and every defaulted field of a record;
    position is None for keyword-only parameters."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            pos = a.posonlyargs + a.args
            bound = 1 if pos and pos[0].arg in ("self", "cls") else 0
            first = len(pos) - len(a.defaults)
            out += [(node.name, arg.arg, i - bound, False)
                    for i, arg in enumerate(pos) if i >= first]
            out += [(node.name, arg.arg, None, False)
                    for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
        elif isinstance(node, ast.ClassDef) and is_record(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                v = f.value
                if v is not None and not (
                        isinstance(v, ast.Call) and _callee(v.func) == "field"
                        and not any(k.arg in ("default", "default_factory")
                                    for k in v.keywords)):
                    out.append((node.name, f.target.id, i, True))
    return out


def calls_by_callee(tree):
    """Every call of a module, keyed by the name it calls."""
    calls = {}

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            name = _callee(node.func)
            calls.setdefault(cls if name == "cls" else name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return calls


def test_every_default_is_passed_somewhere():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) \
        + sorted(BENCH.glob("*.py"))
    calls = {}
    for p in files:
        for name, nodes in calls_by_callee(
                ast.parse(p.read_text(encoding="utf-8"))).items():
            calls.setdefault(name, []).extend(nodes)
    replaced = {k.arg for name in ("replace", "_replace")
                for c in calls.get(name, []) for k in c.keywords}

    def passed(callee, name, position):
        return any(
            any(k.arg in (name, None) for k in c.keywords)
            or any(isinstance(a, ast.Starred) for a in c.args)
            or (position is not None and len(c.args) > position)
            for c in calls.get(callee, []))

    unused = [(p.name, callee, name)
              for p in sorted(PACKAGE.glob("*.py"))
              for callee, name, position, field in defaulted_parameters(
                  ast.parse(p.read_text(encoding="utf-8")))
              if not passed(callee, name, position)
              and not (field and name in replaced)]
    assert unused == []


def modules_loaded_after(code, names, tmp_path):
    """Which of ``names`` are in ``sys.modules`` after ``code`` runs in a
    fresh interpreter whose working directory is ``tmp_path``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = f"{code}\nimport sys\nprint([n for n in {names!r} if n in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


HEAVY = ["scipy", "scipy.special", "mpmath", "importlib.metadata", "xml.sax"]


def test_cli_import_loads_no_heavy_module(tmp_path):
    assert modules_loaded_after("import vanhove_lab.cli", HEAVY, tmp_path) == []


def run_command(argv):
    return ("from vanhove_lab import cli\n"
            f"code = cli.main.main({argv!r} + ['--deterministic'], "
            "standalone_mode=False)\n"
            "assert code == 0, code")


def test_zero_temperature_command_never_loads_scipy(tmp_path):
    loaded = modules_loaded_after(run_command(["d2-xixi"]), HEAVY, tmp_path)
    assert "scipy.special" not in loaded and "mpmath" not in loaded


def test_bubble_command_loads_mpmath(tmp_path):
    loaded = modules_loaded_after(run_command(["bubble-ph"]), HEAVY, tmp_path)
    assert "mpmath" in loaded and "scipy.special" not in loaded
