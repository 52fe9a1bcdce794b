"""Command-line surface: formats, exit codes, round trips, determinism; and
the top-level names of the package."""

import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracles import format_state, parse_state

import handlebody_census
from handlebody_census import Tuple5, census, cli
from handlebody_census.cli import main
from handlebody_census.verification.canonical import enumerate_canonical
from handlebody_census.verification.states import raw_state_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_top_level_exports_the_documented_library_api():
    assert sorted(handlebody_census.__all__) == [
        "BudgetExceededError",
        "Comparison",
        "CountReport",
        "InadmissibleTupleError",
        "Tuple5",
        "census",
        "compare",
    ]
    assert all(hasattr(handlebody_census, name) for name in handlebody_census.__all__)
    assert handlebody_census.__version__


def test_akj_table_is_bare_value(capsys):
    code, out, _ = run_cli(capsys, "akj", "--k", "10", "--j", "2")
    assert code == 0
    assert out == "55\n"


def test_akj_examples(capsys):
    assert run_cli(capsys, "akj", "--k", "4", "--j", "0")[1] == "1\n"
    assert run_cli(capsys, "akj", "--k", "4", "--j", "5")[1] == "56\n"


def test_akj_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "akj", "--k", "10", "--j", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"k": 10, "j": 2, "value": "55"}
    code, out, _ = run_cli(capsys, "akj", "--k", "10", "--j", "2", "--format", "csv")
    assert out == "k,j,value\n10,2,55\n"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no cap on int-to-decimal conversion"
)
def test_akj_prints_counts_past_the_int_string_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(math.comb(15999, 8000))  # 4,814 digits
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > limit
    code, out, err = run_cli(capsys, "akj", "--k", "8000", "--j", "8000")
    assert (code, out, err) == (0, expected + "\n", "")
    code, out, _ = run_cli(capsys, "akj", "--k", "8000", "--j", "8000", "--format", "json")
    assert code == 0
    assert f'"value": "{expected}"' in out
    assert sys.get_int_max_str_digits() == limit


def test_akj_usage_error(capsys):
    code, _, err = run_cli(capsys, "akj", "--k", "0", "--j", "2")
    assert code == 1
    assert "error" in err
    code, out, err = run_cli(capsys, "akj", "--k", "3", "--j", "-1")
    assert (code, out) == (1, "")
    assert err == "handlebody-census akj: error: --j must be >= 0, got -1\n"


def test_tuples_csv(capsys):
    code, out, _ = run_cli(capsys, "tuples", "--p", "3", "--genus", "9", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "r,s,t,m,n,case",
        "0,0,1,1,0,st",
        "0,1,1,0,0,st",
        "1,0,1,0,0,st",
    ]


def test_census_json_round_trips_the_library_report(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--p", "5", "--genus", "26", "--per-tuple", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == "283"
    assert obj["reference_total"] == "248"
    assert len(obj["flags"]) == 2
    report = census(5, 26)
    rows = list(report.iter_rows())
    assert [tuple(row["tuple"]) for row in obj["rows"]] == [row[:5] for row in rows]
    assert [int(row["count"]) for row in obj["rows"]] == [row[6] for row in rows]
    assert int(obj["total"]) == report.total
    for flag in obj["flags"]:
        assert set(flag) == {"location", "paper_value", "computed_value"}
        assert flag["paper_value"] in ("55", "18")


def test_census_empty(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "3", "--genus", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == [] and obj["total"] == "0"
    assert "reference_total" not in obj


def test_census_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "5", "--genus", "26", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "r,s,t,m,n,case,count,flags"
    assert lines[1].startswith("0,0,0,2,0,m,80,")
    assert "published=55" in lines[1] and "computed=80" in lines[1]
    assert lines[3] == "0,2,0,0,0,st,55,"


def test_census_usage_error_on_composite_p(capsys):
    code, _, err = run_cli(capsys, "census", "--p", "4", "--genus", "10")
    assert code == 1
    assert "odd prime" in err


def test_census_table_flags_and_header(capsys):
    code, out, _ = run_cli(capsys, "census", "--p", "5", "--genus", "26", "--per-tuple")
    lines = out.splitlines()
    assert lines[0].startswith("# handlebody-census census generated ")
    assert any("flag:" in line for line in lines)
    code, out2, _ = run_cli(
        capsys, "census", "--p", "5", "--genus", "26", "--per-tuple", "--no-header"
    )
    assert not out2.startswith("#")


def test_table_output_reproducible_modulo_timestamp(capsys):
    _, first, _ = run_cli(capsys, "census", "--p", "3", "--genus", "10", "--per-tuple", "--no-header")
    _, second, _ = run_cli(capsys, "census", "--p", "3", "--genus", "10", "--per-tuple", "--no-header")
    assert first == second


def test_canonical_listing_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "canonical", "--p", "3", "--tuple", "0,1,0,0,0", "--list", "--no-header"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 canonical state(s) for p=3 shape (0,1,0,0,0)"
    assert lines[1] == "p=3 v=0,1,0,0,0"
    states = [parse_state(line) for line in lines[2:]]
    assert [s.bc for s in states] == [((1, 0),), ((2, 0),), ((4, 0),)]


@pytest.mark.parametrize(
    "p,shape,case", [(3, "1,0,0,1,1", "r"), (5, "0,1,1,0,1", "st"), (5, "0,0,0,1,1", "m")]
)
def test_canonical_listing_matches_the_per_state_dump_in_every_format(capsys, p, shape, case):
    v = Tuple5.parse(shape)
    dumped = [format_state(state) for state in enumerate_canonical(p, v)]
    argv = ["canonical", "--p", str(p), "--tuple", shape, "--list"]

    code, out, _ = run_cli(capsys, *argv, "--no-header")
    assert code == 0
    assert out.splitlines() == [
        f"{len(dumped)} canonical state(s) for p={p} shape ({shape})", f"p={p} v={shape}", *dumped
    ]

    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "p": p, "tuple": list(v), "case": case, "count": str(len(dumped)), "states": dumped
    }

    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [["index", "state"]] + [
        [str(i), text] for i, text in enumerate(dumped)
    ]


def test_canonical_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "canonical", "--p", "5", "--tuple", "0,0,0,2,0", "--max-states", "10"
    )
    assert code == 2
    assert "incomplete" in err


def test_orbits_json(capsys):
    code, out, _ = run_cli(
        capsys, "orbits", "--p", "3", "--tuple", "0,1,0,0,0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "p": 3,
        "tuple": [0, 1, 0, 0, 0],
        "orbits": "3",
        "state_space_size": 54,
        "valid_states": 54,
        "largest_orbit": 18,
    }


def test_orbits_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "orbits", "--p", "5", "--tuple", "0,0,0,2,0", "--max-states", "10"
    )
    assert code == 2
    assert "10000" in err


def _capped(*argv, cap_mib=512):
    """The command line of a child process that caps its own address space
    at ``cap_mib`` MiB and runs the CLI on ``argv``."""
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap_mib} << 20, {cap_mib} << 20))\n"
        "from handlebody_census.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    return [sys.executable, "-c", child, *argv]


def _run_capped(*argv, cap_mib=512):
    """Run the CLI in a child process that caps its own address space at
    ``cap_mib`` MiB, so a budget check that comes too late fails with
    MemoryError there instead of exhausting the machine."""
    return subprocess.run(_capped(*argv, cap_mib=cap_mib), capture_output=True, env=_child_env(), timeout=120)


def _child_env():
    """This environment with the package's source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--p", "3", "--genus", "500", "--format", "csv"],
        ["canonical", "--p", "11", "--tuple", "0,2,1,0,0", "--list"],
    ],
)
def test_a_reader_closing_stdout_early_ends_the_process_by_sigpipe(argv):
    # each output is over 1 MB, far past a pipe's buffer
    with subprocess.Popen(
        [sys.executable, "-m", "handlebody_census", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
    assert stderr == b""


def test_orbits_refuses_a_large_prime_before_allocating():
    proc = _run_capped("orbits", "--p", "100003", "--tuple", "1,0,0,0,0")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and "over the budget of 1000000" in lines[0]


def test_canonical_and_verify_refuse_a_large_prime_before_allocating():
    proc = _run_capped("canonical", "--p", "10007", "--tuple", "0,1,0,0,0")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and "exceeds the budget of 1000000 states" in lines[0]

    proc = _run_capped("verify", "--p", "10007", "--tuple", "0,1,0,0,0", "--format", "json")
    assert proc.returncode == 2, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["incomplete"] is True
    (row,) = obj["rows"]
    assert row["complete"] is False
    assert row["canonical_count"] is None and row["orbit_count"] is None
    assert row["theorem_count"] == str(10007 * 10006 // 2)


def test_orbit_spaces_past_int64_and_out_of_memory_exit_two():
    # (0,0,0,30,0) and (0,0,0,20,0) overflow int64 indices; (0,0,0,12,0) fits,
    # at 1.2e15 raw states, but its arrays cannot be allocated.
    for shape, budget, reason in [
        ("0,0,0,30,0", 10**40, "over the int64 index range of 9223372036854775807"),
        ("0,0,0,20,0", 10**40, "over the int64 index range of 9223372036854775807"),
        ("0,0,0,12,0", 10**16, "out of memory"),
    ]:
        proc = _run_capped("orbits", "--p", "3", "--tuple", shape, "--max-states", str(budget))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("orbit count incomplete: "), lines
        assert reason in lines[0]

        argv = ("verify", "--p", "3", "--tuple", shape, "--max-states", str(budget), "--format", "json")
        proc = _run_capped(*argv)
        assert proc.returncode == 2, proc.stderr
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["complete"] is False and row["orbit_count"] is None
        assert row["canonical_count"] == row["theorem_count"]
        # each check computed the raw size; (0,0,0,12,0) passed it
        assert row["state_space_size"] == raw_state_count(3, Tuple5.parse(shape))
        (error,) = row["errors"]
        assert error.startswith("orbits: ") and reason in error


def test_a_million_handles_are_refused_at_once_in_one_short_line():
    # 9^1000000 takes 0.1 s to compute and about 10 s to print in decimal:
    # the refusal is decided from bit-length bounds and names the size by
    # its powers
    start = time.perf_counter()
    proc = _run_capped("orbits", "--p", "3", "--tuple", "1000000,0,0,0,0")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr[:200]
    assert proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 200
    assert b" 9^1000000 states, over the budget of 1000000" in proc.stderr
    assert elapsed < 2


def test_verify_of_a_million_handles_prints_no_raw_size_its_check_did_not_compute():
    # the budget check refuses 9^1000000 from bit lengths, so the row's
    # state_space_size is null, not 954,243 digits that json.loads refuses
    start = time.perf_counter()
    proc = _run_capped("verify", "--p", "3", "--tuple", "1000000,0,0,0,0", "--format", "json")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr[:200]
    assert len(proc.stdout) < 10_000 and elapsed < 2
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["state_space_size"] is None and row["orbit_count"] is None
    (error,) = row["errors"]
    assert error.startswith("orbits: ") and " 9^1000000 states, over the budget of 1000000" in error

    proc = _run_capped("verify", "--p", "3", "--tuple", "1000000,0,0,0,0", "--format", "csv", "--no-header")
    assert proc.returncode == 2, proc.stderr[:200]
    (cells,) = csv.reader(io.StringIO(proc.stdout.decode()))
    assert cells[5:12] == ["r", "3", "3", "", "", "", ""]


def test_orbits_of_a_589824_state_space_run_under_256_mib():
    # 64 engine moves over 589,824 raw states: the fixpoint holds a few
    # label arrays, never one successor array per move
    proc = _run_capped("orbits", "--p", "3", "--tuple", "1,0,0,0,16", "--format", "csv", cap_mib=256)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        b"r,s,t,m,n,orbits,state_space_size,valid_states,largest_orbit\n"
        b"1,0,0,0,16,1,589824,393216,393216\n"
    )


def test_census_of_100151058_shapes_runs_under_256_mib():
    # the total and the shape count are closed forms: a listed census at this
    # genus needs gigabytes
    proc = _run_capped("census", "--p", "3", "--genus", "3000", "--no-header", cap_mib=256)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"total 1325509295535412398 (100151058 shapes)\n"


def test_census_csv_streams_1374562_rows_under_256_mib():
    argv = ("census", "--p", "3", "--genus", "1000", "--no-header")
    table = _run_capped(*argv, "--per-tuple", cap_mib=256)
    assert table.returncode == 0, table.stderr
    body, last = table.stdout.rsplit(b"\n", 2)[:2]
    total, shapes = re.fullmatch(rb"total (\d+) \((\d+) shapes\)", last).groups()
    proc = _run_capped(*argv, "--format", "csv", cap_mib=256)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()
    assert len(rows) == int(shapes) == 1374562
    assert sum(int(row.split(b",")[6]) for row in rows) == int(total)
    del rows
    # No row has flags, so each table row holds its CSV row's cells but the
    # empty flag cell.
    assert re.sub(rb" +", b",", body + b"\n") == proc.stdout.replace(b",\n", b"\n")


def test_census_json_streams_1374562_rows_under_256_mib():
    # The child keeps the text of each row's t, m and n once per value of
    # r+s, not per row.  Its 217 MB of output are read here a block at a
    # time, counting the rows by the line that opens each one.
    argv = _capped("census", "--p", "3", "--genus", "1000", "--format", "json", cap_mib=256)
    opening = b"\n    {\n"
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as proc:
        head = proc.stdout.read(64)
        rows, data = 0, head
        while block := proc.stdout.read(1 << 20):
            data = data[-len(opening) + 1 :] + block
            rows += data.count(opening)
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, stderr
    rows += head.count(opening)
    report = census(3, 1000)
    assert head.startswith(b'{\n  "p": 3,\n  "g": 1000,\n  "rows": [\n    {\n      "tuple": [')
    assert rows == report.shape_count == 1374562
    assert data.endswith(b'\n  ],\n  "total": "%d",\n  "flags": []\n}\n' % report.total)


def test_tuples_table_streams_1374562_rows_under_256_mib():
    argv = ("tuples", "--p", "3", "--genus", "1000", "--no-header")
    table = _run_capped(*argv, cap_mib=256)
    assert table.returncode == 0, table.stderr
    body, last = table.stdout.rsplit(b"\n", 2)[:2]
    assert last == b"1374562 admissible shape(s) for p=3 genus=1000"
    proc = _run_capped(*argv, "--format", "csv", cap_mib=256)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(b"\n") == 1374562
    assert re.sub(rb" +", b",", body + b"\n") == proc.stdout


def test_verify_single_tuple(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "3", "--tuple", "0,1,0,0,0",
        "--max-states", "100000", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 3 and obj["tuple"] == [0, 1, 0, 0, 0]
    row = obj["rows"][0]
    assert (row["theorem_count"], row["canonical_count"], row["orbit_count"]) == ("3", "3", "3")
    assert row["agreement"] == {
        "theorem_vs_canonical": True,
        "theorem_vs_orbit": True,
        "canonical_vs_orbit": True,
    }
    assert obj["incomplete"] is False


def test_verify_genus_reports_every_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--genus", "10", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 6
    counts = {tuple(r["tuple"]): r["orbit_count"] for r in obj["rows"]}
    assert counts[(0, 0, 0, 2, 0)] == "5"
    assert counts[(2, 0, 0, 0, 0)] == "1"
    assert counts[(0, 1, 0, 1, 0)] == "9"


def test_verify_budget_exit_two(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "5", "--tuple", "0,0,0,2,0",
        "--max-states", "10", "--format", "json",
    )
    assert code == 2
    obj = json.loads(out)
    assert obj["incomplete"] is True
    assert obj["rows"][0]["complete"] is False


def test_verify_needs_exactly_one_target(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "3")
    assert code == 1
    code, _, err = run_cli(
        capsys, "verify", "--p", "3", "--genus", "10", "--tuple", "0,1,0,0,0"
    )
    assert code == 1


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--tuple", "0,1,0,0,0", "--format", "csv"
    )
    assert out.splitlines()[0] == (
        "r,s,t,m,n,case,theorem_count,canonical_count,orbit_count,"
        "state_space_size,valid_states,largest_orbit,"
        "agree_theorem_canonical,agree_theorem_orbit,agree_canonical_orbit,complete"
    )
    assert out.splitlines()[1] == "0,1,0,0,0,st,3,3,3,54,54,18,True,True,True,True"


def _text(value) -> str:
    """A JSON value as csv writes it in a cell: a null as an empty cell."""
    return "" if value is None else str(value)


def _json_and_csv(capsys, *argv):
    """The JSON document and the CSV rows (header first) of one argv."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == code_csv
    return json.loads(out), list(csv.reader(io.StringIO(out_csv)))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "5", "--genus", "26"],
        ["verify", "--p", "3", "--genus", "10", "--max-states", "50"],
    ],
)
def test_verify_csv_cells_are_the_json_row_values_by_name(capsys, argv):
    doc, (header, *rows) = _json_and_csv(capsys, *argv)
    assert len(rows) == len(doc["rows"]) > 0
    nulls = 0
    for obj, row in zip(doc["rows"], rows):
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            if name in "rstmn":
                value = obj["tuple"]["rstmn".index(name)]
            elif name.startswith("agree_"):
                a, b = name[len("agree_"):].split("_")
                value = obj["agreement"][f"{a}_vs_{b}"]
            else:
                value = obj[name]
            assert cell == _text(value), (name, obj)
            nulls += value is None
    # the budget of 50 stops a route on some shape of genus 10 at p=3
    assert (nulls > 0) == doc["incomplete"] == ("--max-states" in argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["akj", "--k", "10", "--j", "2"],
        ["akj", "--k", "8000", "--j", "8000"],
        ["canonical", "--p", "3", "--tuple", "0,1,0,0,0"],  # case st
        ["canonical", "--p", "5", "--tuple", "2,0,0,1,0"],  # case r
        ["canonical", "--p", "5", "--tuple", "0,0,0,2,1"],  # case m
        ["orbits", "--p", "3", "--tuple", "0,1,0,0,0"],
        ["orbits", "--p", "3", "--tuple", "1,0,0,1,0"],
        ["orbits", "--p", "5", "--tuple", "0,0,0,2,0"],
    ],
)
def test_a_one_record_answer_has_its_json_keys_after_p_as_its_csv_row(capsys, argv):
    obj, rows = _json_and_csv(capsys, *argv)
    assert len(rows) == 2
    header, row = rows
    expected = {}
    for key, value in obj.items():
        if key == "tuple":
            expected.update(zip("rstmn", value))
        elif key != "p":
            expected[key] = value
    assert header == list(expected)
    assert row == list(map(_text, expected.values()))


@pytest.mark.parametrize(
    "argv",
    [
        ["akj", "--k", "8000", "--j", "8000"],  # a 4,814-digit value
        ["canonical", "--p", "5", "--tuple", "2,0,0,1,0"],
        ["orbits", "--p", "3", "--tuple", "1,0,0,1,0"],
    ],
)
def test_a_one_record_answer_renders_no_csv_row_for_json(capsys, monkeypatch, argv):
    def refuse(cells):
        raise AssertionError("a CSV row was rendered")

    monkeypatch.setattr(cli, "_csv_line", refuse)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)


def test_bad_tuple_syntax_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "orbits", "--p", "3", "--tuple", "1,2,3")
    assert code == 1
    code, _, err = run_cli(capsys, "orbits", "--p", "3", "--tuple", "0,0,0,0,2")
    assert code == 1


@pytest.mark.parametrize("command", ["canonical", "orbits", "verify"])
@pytest.mark.parametrize("tuple_args", [["--tuple", "-1,0,0,1,0"], ["--tuple=-1,0,0,1,0"]])
def test_negative_tuple_reaches_the_tuple_parser(capsys, command, tuple_args):
    # argparse would take "-1,0,0,1,0" for an option and report a missing argument
    code, out, err = run_cli(capsys, command, "--p", "3", *tuple_args)
    assert (code, out) == (1, "")
    assert "shape components must be nonnegative integers, got (-1, 0, 0, 1, 0)" in err


@pytest.mark.parametrize(
    "command,shape",
    [
        ("canonical", "100000000000000000000,0,0,0,0"),
        ("verify", "100000000000000000000,0,0,0,0"),
        ("canonical", "1,0,0,0,100000000000000000000"),
        ("orbits", "100000000000000000000,0,0,0,0"),
        ("verify", "0,100000000000000000000,0,0,0"),
    ],
)
def test_a_component_past_sys_maxsize_is_a_usage_error(capsys, command, shape):
    # refused when the shape is built: no overflow, and no q**r computed
    code, out, err = run_cli(capsys, command, "--p", "3", "--tuple", shape)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "shape components must be at most sys.maxsize" in err


def test_json_outputs_are_deterministic(capsys):
    args = ("verify", "--p", "3", "--genus", "10", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["canonical", "--p", "3", "--tuple", "0,1,0,0,0", "--max-states", "-1"],
        ["orbits", "--p", "3", "--tuple", "0,1,0,0,0", "--max-states", "-1"],
        ["verify", "--p", "3", "--tuple", "0,1,0,0,0", "--max-states", "-1"],
        ["verify", "--p", "3", "--genus", "10", "--max-states", "-5", "--format", "json"],
        ["orbits", "--p", "3", "--tuple", "0,1,0,0,0", "--workers", "0"],
        ["verify", "--p", "3", "--genus", "10", "--workers", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_negative_budgets_and_worker_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    flag = "--workers" if "--workers" in argv else "--max-states"
    assert f"argument {flag}: must be >= " in captured.err


def test_a_zero_budget_is_a_refusal_not_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "canonical", "--p", "3", "--tuple", "0,1,0,0,0", "--max-states", "0"
    )
    assert (code, out) == (2, "")
    assert err.startswith("canonical enumeration incomplete: ")
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--genus", "10", "--max-states", "0")
    assert code == 2 and "[incomplete]" in out


def test_a_budget_past_sys_maxsize_is_accepted(capsys):
    budget = str(10**40)
    code, out, _ = run_cli(
        capsys, "canonical", "--p", "3", "--tuple", "0,1,0,0,0", "--max-states", budget, "--format", "json"
    )
    assert code == 0 and json.loads(out)["count"] == "3"
    code, out, _ = run_cli(
        capsys, "verify", "--p", "3", "--tuple", "0,1,0,0,0", "--max-states", budget, "--format", "json"
    )
    assert code == 0 and json.loads(out)["incomplete"] is False
