"""No module under ``src/`` holds an ``assert`` statement.

``python -O`` strips those, so every invariant in the package is an
explicit check that raises under any interpreter flag."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py"))


def assert_lines(source: str) -> list[int]:
    """The line of each ``assert`` statement in a module."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_the_check_finds_an_assert():
    source = "def f(x):\n    assert x, 'x'\n    if x:\n        assert not x\n    raise AssertionError('assert')\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", FILES, ids=[str(f.relative_to(ROOT)) for f in FILES])
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []
