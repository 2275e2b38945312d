"""Guard against library code that only tests read: every public top-level
function and class of the package is named, as a whole word, somewhere
other than its own definition line, in the package, the demos, the
benchmark or the README.  A test-only oracle belongs in tests/oracles.py.
Nor is a public function an alias: one whose body only returns another
function's call on its own parameters.  And the console script that an
install of the checkout gives is the CLI's main, in the package the build
finds."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from spacelike import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spacelike"


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.lineno, node.name


def _reader_lines():
    """(path, line number, line) of every line a caller outside tests/ could be on."""
    paths = [p for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*"))
             if p.suffix in (".py", ".md")]
    for path in paths + [ROOT / "README.md"]:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield path, number, line


def test_every_public_definition_is_named_outside_the_tests():
    lines = list(_reader_lines())
    unread = []
    for path, lineno, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line) for p, n, line in lines if (p, n) != (path, lineno)):
            unread.append(f"{path.name}:{lineno} {name}")
    assert unread == []



def _forwards_its_parameters(fn: ast.FunctionDef) -> bool:
    """True if the body of ``fn``, less its docstring, is one ``return`` of a
    call on exactly fn's own parameters, each passed as itself."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or not isinstance(body[0].value, ast.Call):
        return False
    call = body[0].value
    # x, *args, x=x and **kwargs pass a parameter as itself
    passed = [a.value if isinstance(a, ast.Starred) else a for a in call.args]
    passed += [k.value for k in call.keywords if k.arg in (None, getattr(k.value, "id", None))]
    if len(passed) < len(call.args) + len(call.keywords):
        return False
    args = fn.args
    params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
              if a is not None]
    return (all(isinstance(a, ast.Name) for a in passed)
            and sorted(a.id for a in passed) == sorted(params))


def test_no_public_function_is_an_alias_of_another():
    aliases = [f"{path.name}:{node.lineno} {node.name}"
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and _forwards_its_parameters(node)]
    assert aliases == []


def test_the_console_script_is_the_cli_main_of_the_built_package():
    # the tests import the package from src/ and never install it
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["spacelike"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main
    where = project["tool"]["setuptools"]["packages"]["find"]["where"]
    assert [ROOT / w / "spacelike" for w in where] == [PACKAGE]
