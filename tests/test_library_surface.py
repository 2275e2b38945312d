"""Guard against library code that only tests read: every public top-level
function and class of the package is named, as a whole word, somewhere
other than its own definition line, in the package, the demos, the
benchmark or the README.  A test-only oracle belongs in tests/oracles.py."""

import ast
import re
from pathlib import Path

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
