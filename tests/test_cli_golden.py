"""Golden CLI outputs: stdout, exit code and stderr of every subcommand in
every output format, replayed byte for byte against ``cli_golden.json``.

The only byte that may change between runs is the timestamp line that table
output starts with; it is checked for its form and then stripped.

``python tests/test_cli_golden.py`` rewrites ``cli_golden.json`` from the
current code.  The file was recorded before the CLI's per-format emitters
were folded into one renderer, so it pins their output.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from handlebody_census.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# table, table --no-header, json, csv, csv --no-header
FORMATS = [
    [],
    ["--no-header"],
    ["--format", "json"],
    ["--format", "csv"],
    ["--format", "csv", "--no-header"],
]

COMMANDS = [
    ["akj", "--k", "10", "--j", "2"],
    ["akj", "--k", "4", "--j", "0"],
    ["tuples", "--p", "3", "--genus", "9"],
    ["tuples", "--p", "3", "--genus", "2"],
    ["tuples", "--p", "5", "--genus", "26"],
    ["census", "--p", "5", "--genus", "26"],
    ["census", "--p", "5", "--genus", "26", "--per-tuple"],
    ["census", "--p", "3", "--genus", "2", "--per-tuple"],
    ["census", "--p", "3", "--genus", "10", "--per-tuple"],
    ["canonical", "--p", "3", "--tuple", "0,1,0,0,0"],
    ["canonical", "--p", "3", "--tuple", "0,1,0,0,0", "--list"],
    ["canonical", "--p", "5", "--tuple", "0,0,0,2,0", "--list"],
    ["canonical", "--p", "5", "--tuple", "0,0,0,2,0", "--max-states", "10"],
    ["orbits", "--p", "3", "--tuple", "0,1,0,0,0", "--workers", "1"],
    ["orbits", "--p", "3", "--tuple", "0,0,0,2,0", "--workers", "1"],
    ["orbits", "--p", "3", "--tuple", "0,0,0,2,0", "--workers", "2"],
    ["orbits", "--p", "5", "--tuple", "0,0,0,2,0", "--max-states", "10"],
    ["verify", "--p", "3", "--genus", "10"],
    ["verify", "--p", "3", "--genus", "2"],
    ["verify", "--p", "3", "--genus", "10", "--workers", "2"],
    ["verify", "--p", "3", "--tuple", "0,1,0,0,0"],
    ["verify", "--p", "3", "--genus", "10", "--max-states", "50"],
    ["verify", "--p", "5", "--tuple", "0,0,0,2,0", "--max-states", "10"],
]

# Usage errors raised inside a subcommand: a one-line message, exit 1.
ERRORS = [
    ["akj", "--k", "0", "--j", "2"],
    ["census", "--p", "4", "--genus", "10"],
    ["orbits", "--p", "3", "--tuple", "0,0,0,0,2"],
    ["verify", "--p", "3"],
    ["verify", "--p", "3", "--genus", "10", "--tuple", "0,1,0,0,0"],
]

TIMESTAMP = re.compile(
    r"# handlebody-census (\w+) generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00\n"
)


def run(argv):
    """stdout with any timestamp line stripped, whether it had one, exit
    code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    stamp = TIMESTAMP.match(stdout)
    if stamp is not None:
        assert stamp.group(1) == argv[0]
        stdout = stdout[stamp.end():]
    return {
        "argv": list(argv),
        "timestamp": stamp is not None,
        "exit": code,
        "stdout": stdout,
        "stderr": err.getvalue(),
    }


def all_argv():
    return [cmd + fmt for cmd in COMMANDS for fmt in FORMATS] + ERRORS


def _load():
    # Missing only while the file is being recorded; the coverage test then fails.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_every_case():
    assert [case["argv"] for case in _load()] == all_argv()


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_is_byte_identical(case):
    assert run(case["argv"]) == case


if __name__ == "__main__":
    cases = [run(argv) for argv in all_argv()]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
