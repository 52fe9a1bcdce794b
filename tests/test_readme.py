"""The README's library example runs and prints what its comments say."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    """The python block under ``## Library use``."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_use_block_gives_its_commented_results(capsys):
    block = _library_block()
    tree = ast.parse(block)
    # the block ends on the bare ``part.least(...)`` call its last comment shows
    last = tree.body[-1]
    assert isinstance(last, ast.Expr)
    tree.body[-1] = ast.Assign(targets=[ast.Name("least", ctx=ast.Store())], value=last.value)
    namespace = {}
    exec(compile(ast.fix_missing_locations(tree), str(README), "exec"), namespace)

    printed = capsys.readouterr().out
    assert printed == "6 6 5\n"
    assert "\n# 6 6 5 " in block
    part = namespace["part"]
    stats = f"orbit_count {part.orbit_count}, raw {part.raw}, quotient {part.quotient}, fiber {part.fiber}"
    assert stats == "orbit_count 5, raw 324, quotient 36, fiber 9"
    assert f"# {stats}\n" in block
    least = repr(namespace["least"])
    assert least == "State(a=(), bc=(), d=(), ef=((3, 0), (3, 1)), g=())"
    assert f"\n# {least}\n" in block
