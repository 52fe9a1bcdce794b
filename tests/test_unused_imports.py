"""Every name a module under ``src/`` or ``tests/`` imports is used in it.

A name counts as used when the module reads it anywhere (as a name, or as
the base of an attribute) or lists it in ``__all__``.  ``from __future__``
imports are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each imported name the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\n__all__ = ['d']\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=[str(f.relative_to(ROOT)) for f in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
