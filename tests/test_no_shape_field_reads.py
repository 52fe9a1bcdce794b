"""No module under ``src/`` reads a shape field by attribute.

A shape is the plain tuple ``(r, s, t, m, n)``; :class:`Tuple5` adds field
names, and a plain tuple has none.  So the package unpacks a shape
(``r, s, t, m, n = v``) and never reads ``v.r``, and every function works
on either.  No other attribute in the package is named ``r``, ``s``, ``t``,
``m`` or ``n``, so any such attribute is a shape-field read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "handlebody_census").rglob("*.py"))
FIELDS = {"r", "s", "t", "m", "n"}


def field_reads(source: str) -> list[tuple[int, str]]:
    """The line and name of each attribute named like a shape field."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FIELDS
    )


def test_the_check_finds_a_field_read():
    source = "def f(v, w):\n    r, s, t, m, n = v\n    return v.r + w.n, v.rank, 's'\n"
    assert field_reads(source) == [(3, "n"), (3, "r")]


@pytest.mark.parametrize("path", FILES, ids=[str(f.relative_to(ROOT)) for f in FILES])
def test_no_shape_field_reads(path):
    assert field_reads(path.read_text()) == []
