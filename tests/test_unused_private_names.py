"""Every private name the package defines is read somewhere in the package.

A private name is a module-level function, class or assigned name, or a
method, whose name starts with one underscore and does not end with one
(dunders and sunders are called by Python itself).  It counts as read when
some module under ``src/`` reads it (as a name, or as an attribute) outside
its own definition.  A helper that only the tests call is dead code kept
alive by its tests, and fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("_")


def _definitions(tree: ast.Module):
    """``(name, node)`` for each private module-level name and method; the
    node of an assignment is the statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item


def _reads(node: ast.AST):
    """Every name and attribute read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` for each private name defined in
    ``sources`` (module -> text) that no module reads outside its own
    definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads: dict[str, int] = {}
    for tree in trees.values():
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    unread = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if not _is_private(name):
                continue
            own = sum(read == name for read in _reads(node))
            if reads.get(name, 0) == own:
                unread.append((module, node.lineno, name))
    return sorted(unread)


def test_the_check_finds_an_unread_private_name():
    source = (
        "_LIMIT = 3\n"
        "_SEEN = 4\n"
        "def _helper():\n"
        "    return _helper()\n"
        "def _used():\n"
        "    return _LIMIT\n"
        "class _Box:\n"
        "    def _spare(self):\n"
        "        return 1\n"
        "    def _kept(self):\n"
        "        return 2\n"
        "    def __repr__(self):\n"
        "        return str(self._kept())\n"
        "def run():\n"
        "    return _used(), _Box\n"
    )
    other = "from box import _SEEN\nprint(_SEEN)\n"
    assert unread_private_names({"box": source, "other": other}) == [
        ("box", 3, "_helper"),
        ("box", 8, "_spare"),
    ]


def test_every_private_name_is_read_in_the_package():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SOURCES}
    assert unread_private_names(sources) == []
