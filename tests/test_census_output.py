"""Census and tuples output: byte identity with the row-by-row reference
renderers, the recorded benchmark outputs, and
no per-shape objects on the CLI path; and the CSV of a state dump against
:mod:`csv`."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest

from handlebody_census import cli, theorem_counts
from handlebody_census.theorem_counts import CountReport, Flag, census
from handlebody_census.tuples import Tuple5, shape_tables
from handlebody_census.verification.canonical import NormalForms
from handlebody_census.cli import main

import census_reference as ref

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

# (p, genera): includes (3, 2) with no rows, (5, 26) with its two flags, and
# (3, 100), whose r reaches two digits only in its last runs.
CASES = [(3, range(1, 41)), (3, [100]), (5, range(1, 80, 3)), (5, [26]), (7, range(1, 200, 7))]
PAIRS = [(p, g) for p, genera in CASES for g in genera]


def run_cli(capsys, *argv):
    code = main([str(x) for x in argv])
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_cases_cover_an_empty_census_and_the_flagged_reference():
    assert census(3, 2).shape_count == 0 and list(census(3, 2).iter_rows()) == []
    assert len(census(5, 26).flags) == 2


@pytest.mark.parametrize("p,g", PAIRS)
def test_census_output_matches_the_row_by_row_reference(capsys, p, g):
    report = census(p, g)
    common = ("census", "--p", p, "--genus", g)
    assert run_cli(capsys, *common, "--format", "json") == ref.census_json(report)
    assert run_cli(capsys, *common, "--format", "csv") == ref.census_csv(report, False)
    assert run_cli(capsys, *common, "--format", "csv", "--no-header") == ref.census_csv(report, True)


@pytest.mark.parametrize("p,g", PAIRS)
def test_census_table_matches_the_row_by_row_reference(capsys, p, g):
    report = census(p, g)
    common = ("census", "--p", p, "--genus", g)
    for per_tuple in ((), ("--per-tuple",)):
        out = run_cli(capsys, *common, *per_tuple, "--no-header")
        assert out == ref.census_table(report, bool(per_tuple), True)
        out = run_cli(capsys, *common, *per_tuple)
        first, rest = out.split("\n", 1)
        assert first.startswith("# handlebody-census census generated ")
        assert rest == ref.census_table(report, bool(per_tuple), False)


@pytest.mark.parametrize("p,g", PAIRS)
def test_tuples_output_matches_the_row_by_row_reference(capsys, p, g):
    common = ("tuples", "--p", p, "--genus", g)
    assert run_cli(capsys, *common, "--format", "json") == ref.tuples_json(p, g)
    assert run_cli(capsys, *common, "--format", "csv") == ref.tuples_csv(p, g, False)
    assert run_cli(capsys, *common, "--format", "csv", "--no-header") == ref.tuples_csv(p, g, True)


@pytest.mark.parametrize("p,g", PAIRS)
def test_tuples_table_matches_the_row_by_row_reference(capsys, p, g):
    common = ("tuples", "--p", p, "--genus", g)
    assert run_cli(capsys, *common, "--no-header") == ref.tuples_table(p, g, True)
    first, rest = run_cli(capsys, *common).split("\n", 1)
    assert first.startswith("# handlebody-census tuples generated ")
    assert rest == ref.tuples_table(p, g, False)


def test_flags_stay_per_row_inside_a_multi_row_run(capsys, monkeypatch):
    # At (5, 26) every flagged shape is alone in its run; here one flag sits
    # on the middle row of a run of three or more.
    report = census(3, 60)
    r, s, t, ms, ns, _ = next(
        (r, s, *run) for r, s, runs, *_ in report.iter_tables() for run in runs if len(run[1]) >= 3
    )
    middle = (r, s, t, ms[1], ns[1])
    flag = Flag(location=f"synthetic flag on {middle}", paper_value=1, computed_value=2)
    flagged = dataclasses.replace(report, shape_flags={middle: (flag,)})
    rows = list(flagged.iter_rows())
    assert [row[:5] for row in rows if row[7]] == [middle]
    monkeypatch.setattr(cli, "census", lambda p, g: flagged)
    common = ("census", "--p", 3, "--genus", 60)
    assert run_cli(capsys, *common, "--format", "json") == ref.census_json(flagged)
    assert run_cli(capsys, *common, "--format", "csv") == ref.census_csv(flagged, False)
    out = run_cli(capsys, *common, "--per-tuple", "--no-header")
    assert out == ref.census_table(flagged, True, True)
    assert f"synthetic flag on {middle}" in out


def _split_targets(report):
    """Per case, the shape on the second row of a run where
    :meth:`CountReport.iter_tables` splits or walks a table: ``"r"`` in the
    run that leads an s = 0 table with r > 0, ``"m"`` in the run that leads
    the table at r = s = 0, ``"st"`` in the second run of an s > 0 table."""
    targets = {}
    for r, s, runs, _, _ in report.iter_tables():
        if not s and runs and not runs[0][0] and len(runs[0][1]) >= 2:
            t, ms, ns, _ = runs[0]
            targets.setdefault("r" if r else "m", (r, s, t, ms[1], ns[1]))
        elif s and len(runs) >= 2 and len(runs[1][1]) >= 2:
            t, ms, ns, _ = runs[1]
            targets.setdefault("st", (r, s, t, ms[1], ns[1]))
    return targets


@pytest.mark.parametrize("case", ["r", "m", "st"])
def test_flags_stay_per_row_where_a_table_splits(capsys, monkeypatch, case):
    # (3, 43) has all three places, each in a run of at least two rows
    report = census(3, 43)
    shape = _split_targets(report)[case]
    flag = Flag(location=f"synthetic flag on {shape}", paper_value=1, computed_value=2)
    flagged = dataclasses.replace(report, shape_flags={shape: (flag,)})
    rows = [row for row in flagged.iter_rows() if row[7]]
    assert [(row[:5], row[5].value, row[7]) for row in rows] == [(shape, case, (flag,))]
    monkeypatch.setattr(cli, "census", lambda p, g: flagged)
    common = ("census", "--p", 3, "--genus", 43)
    assert run_cli(capsys, *common, "--format", "json") == ref.census_json(flagged)
    assert run_cli(capsys, *common, "--format", "csv") == ref.census_csv(flagged, False)
    out = run_cli(capsys, *common, "--per-tuple", "--no-header")
    assert out == ref.census_table(flagged, True, True)
    assert f"synthetic flag on {shape}" in out
    rest = run_cli(capsys, *common, "--per-tuple").split("\n", 1)[1]
    assert rest == ref.census_table(flagged, True, False)


def _csv_writer_dump(listed):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(enumerate(listed))
    return buf.getvalue()


def _forms(listed):
    """:class:`NormalForms` whose dump lines are ``listed``: one branch per
    line, each pool holding that line's one entry of its class."""

    def entry(text, paired):
        values = tuple(map(int, text.split(","))) if text else ()
        return tuple(zip(values[::2], values[1::2])) if paired else values

    paired = [False, True, False, True, False]
    return NormalForms([[[entry(text, pair)] for text, pair in zip(line.split("|"), paired)] for line in listed])


@pytest.mark.parametrize(
    "listed",
    [["1||||", "2||||", "4||||"], ["0||1||3"], ["|1,0|||", "|2,0|||"], ["4|||3,0|"], []],
)
def test_dump_csv_template_matches_csv_writer(listed):
    forms = _forms(listed)
    assert forms.lines() == listed
    assert "".join(cli._dump_csv(forms)) == _csv_writer_dump(listed)


@pytest.mark.parametrize(
    "p,shape",
    [(3, "1,0,0,0,0"), (3, "1,0,1,0,1"), (3, "0,1,0,0,0"), (3, "2,0,0,0,0"), (5, "1,0,0,1,0"), (7, "0,0,1,0,2")],
)
def test_canonical_list_csv_matches_csv_writer(capsys, p, shape):
    # shapes whose dump lines hold no comma and shapes whose lines all do
    table = run_cli(capsys, "canonical", "--p", p, "--tuple", shape, "--list", "--no-header")
    listed = table.splitlines()[2:]
    assert listed
    out = run_cli(capsys, "canonical", "--p", p, "--tuple", shape, "--list", "--format", "csv")
    assert out == "index,state\n" + _csv_writer_dump(listed)


@pytest.mark.parametrize("listed", [["1||||", "2||||", "4||||"], ["|1,0|||", "|2,0|||"], []])
def test_json_states_matches_json_dumps(listed):
    obj = {"p": 3, "tuple": [0, 1, 0, 0, 0], "count": str(len(listed))}
    want = json.dumps({**obj, "states": listed}, indent=2)
    assert "".join(cli._json_states(obj, _forms(listed))) == want


@pytest.mark.parametrize("p,shape", [(3, "0,1,0,0,0"), (5, "0,0,0,2,0"), (13, "0,2,1,0,0")])
def test_canonical_list_json_matches_json_dumps(capsys, p, shape):
    table = run_cli(capsys, "canonical", "--p", p, "--tuple", shape, "--list", "--no-header")
    out = run_cli(capsys, "canonical", "--p", p, "--tuple", shape, "--list", "--format", "json")
    obj = json.loads(out)
    assert obj["states"] == table.splitlines()[2:]
    assert out == json.dumps(obj, indent=2) + "\n"


class _CountingSink:
    """A stdout that keeps only the number of characters written and of writes."""

    chars = writes = 0

    def write(self, text):
        self.chars += len(text)
        self.writes += 1

    def writelines(self, chunks):
        for text in chunks:
            self.write(text)


def _listing_peak(*argv):
    """The characters a ``canonical --list`` run writes, and its tracemalloc peak."""
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["canonical", "--p", "13", "--list", "--no-header", *argv])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return sink.chars, peak


def test_canonical_listing_peaks_at_a_few_times_its_output():
    # the listing is joined once per shared head, not held as one string
    # per form beside its join
    chars, peak = _listing_peak("--tuple", "0,1,2,0,0")
    assert chars > 3_000_000
    assert peak <= 3 * chars


def test_canonical_csv_listing_peaks_below_half_its_output():
    # the CSV lines are made a head at a time and written one by one, never
    # held together: one string per form held in a list peaked at three
    # times the output
    chars, peak = _listing_peak("--tuple", "0,2,1,0,0", "--format", "csv")
    assert chars > 5_000_000
    assert peak <= chars // 2


def _held_after_the_r0_pass(p, g, stream=cli._census_csv):
    """What a census stream, CSV unless ``stream`` is another, holds, by
    tracemalloc, when it has rendered every row with r = 0 and reads the
    first table with r = 1: the texts, templates and factors it keeps for
    the later passes, and the chunk it is filling."""
    report = census(p, g)
    held = []

    def tables():
        for table in CountReport.iter_tables(report):
            if table[0] == 1 and not held:
                held.append(tracemalloc.get_traced_memory()[0])
            yield table

    report.iter_tables = tables
    tracemalloc.start()
    try:
        for _ in stream(report):
            if held:
                return held[0]
    finally:
        tracemalloc.stop()


def test_what_a_census_keeps_grows_as_the_square_of_the_genus():
    # The texts and factors are kept per (ms, ns) columns of a run, about
    # g^2 entries (2.8 and 7.6 MiB at genus 1000 and 2000, with the chunk
    # being filled), not per row of each table, about g^3 entries (5.1 and
    # 37 MiB).
    small, large = _held_after_the_r0_pass(3, 1000), _held_after_the_r0_pass(3, 2000)
    assert large <= 5 * small
    assert large < 12 << 20


def test_what_a_json_census_keeps_stays_under_a_fixed_bound():
    # JSON rows are about six times the CSV's, and so are their texts and
    # templates: 5.5 and 11.8 MiB at genus 1000 and 2000.  A template kept
    # for every list of runs would hold 8.9 and 34 MiB more; the cap
    # (cli._KEPT) holds the kept ones to 2 MiB.
    small, large = (_held_after_the_r0_pass(3, g, cli._census_json) for g in (1000, 2000))
    assert large <= 5 * small
    assert large < 16 << 20


def test_a_large_census_is_written_in_a_few_large_chunks():
    # one write per chunk of whole (r, s) tables, not one per row: 87,437
    # rows, 13.8 MB
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        assert main(["census", "--p", "3", "--genus", "492", "--format", "json"]) == 0
    assert sink.chars > 13_000_000
    assert sink.writes < 100


def _row_ends(report, fmt, pieces):
    """The numbers of rows written by the end of each chunk of ``pieces``
    that ends inside the census (after its first row, before its last)."""
    mark = '"tuple"' if fmt == "json" else "\n"
    return {n for n in accumulate(piece.count(mark) for piece in pieces) if 0 < n < report.shape_count}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_flags_on_the_last_row_of_a_table_and_of_a_chunk(capsys, monkeypatch, fmt):
    # A row's flag field is written into the slot after it, which for the
    # last row of a table is the table's end, not a separator.  Flagged
    # here: the last row of a table inside a chunk, the last row of the
    # first chunk, and the last row of the census.
    monkeypatch.setattr(cli, "_CHUNK", 1024)
    report = census(3, 100)
    streams = {
        "json": cli._census_json,
        "csv": cli._census_csv,
        "table": lambda report: cli._census_table(report, True, True),
    }
    chunk_ends = _row_ends(report, fmt, streams[fmt](report))
    table_ends = {n for n in accumulate(len(table[3]) for table in report.iter_tables()) if n < report.shape_count}
    assert chunk_ends and chunk_ends <= table_ends and table_ends - chunk_ends
    rows = list(report.iter_rows())
    ends = [min(table_ends - chunk_ends), min(chunk_ends), report.shape_count]
    shapes = [rows[n - 1][:5] for n in ends]
    flags = {v: (Flag(location=f"synthetic flag on {v}", paper_value=1, computed_value=2),) for v in shapes}
    flagged = dataclasses.replace(report, shape_flags=flags)
    monkeypatch.setattr(cli, "census", lambda p, g: flagged)
    common = ("census", "--p", 3, "--genus", 100)
    if fmt == "json":
        assert run_cli(capsys, *common, "--format", "json") == ref.census_json(flagged)
    elif fmt == "csv":
        assert run_cli(capsys, *common, "--format", "csv") == ref.census_csv(flagged, False)
    else:
        out = run_cli(capsys, *common, "--per-tuple", "--no-header")
        assert out == ref.census_table(flagged, True, True)
        assert all(f"synthetic flag on {v}" in out for v in shapes)


@pytest.mark.parametrize("kept", [0, 4096], ids=["none-kept", "4-kib-cap"])
@pytest.mark.parametrize("p,g", [(5, 26), (3, 43), (3, 100), (7, 99)])
def test_tables_rendered_from_templates_made_for_them_alone_match_the_reference(capsys, monkeypatch, kept, p, g):
    # With no template kept every list of runs is rendered from a template
    # made for its table alone; with 4 KiB the templates of the first lists
    # are given up for later ones.
    monkeypatch.setattr(cli, "_KEPT", kept)
    report = census(p, g)
    common = ("census", "--p", p, "--genus", g)
    assert run_cli(capsys, *common, "--format", "json") == ref.census_json(report)
    assert run_cli(capsys, *common, "--format", "csv") == ref.census_csv(report, False)
    assert run_cli(capsys, *common, "--per-tuple", "--no-header") == ref.census_table(report, True, True)
    assert run_cli(capsys, "tuples", "--p", p, "--genus", g, "--format", "csv") == ref.tuples_csv(p, g, False)


@pytest.mark.parametrize("kept", [0, cli._KEPT], ids=["none-kept", "default-cap"])
def test_a_flagged_table_of_a_list_with_a_kept_template(capsys, monkeypatch, kept):
    # Flagged: the last row of the (1, s-1) table, whose list of runs was
    # first met, with no flag, at (0, s) and kept there unless the cap is 0,
    # and the last row of the census.
    monkeypatch.setattr(cli, "_KEPT", kept)
    report = census(3, 100)
    rows = list(report.iter_rows())
    sizes = [(r, s, len(counts)) for r, s, _, counts, _ in report.iter_tables()]
    ends = dict(zip([(r, s) for r, s, _ in sizes], accumulate(n for _, _, n in sizes)))
    s = next(s for r, s, n in sizes if not r and s >= 2 and n >= 2)
    shapes = [rows[ends[1, s - 1] - 1][:5], rows[-1][:5]]
    flags = {v: (Flag(location=f"synthetic flag on {v}", paper_value=1, computed_value=2),) for v in shapes}
    flagged = dataclasses.replace(report, shape_flags=flags)
    monkeypatch.setattr(cli, "census", lambda p, g: flagged)
    common = ("census", "--p", 3, "--genus", 100)
    assert run_cli(capsys, *common, "--format", "json") == ref.census_json(flagged)
    assert run_cli(capsys, *common, "--format", "csv") == ref.census_csv(flagged, False)
    out = run_cli(capsys, *common, "--per-tuple", "--no-header")
    assert out == ref.census_table(flagged, True, True)
    assert all(f"synthetic flag on {v}" in out for v in shapes)


RECORDED = json.loads(EXPECTED.read_text())
REPLAYED = [key for key, record in RECORDED.items() if record["exit"] == 0]


@pytest.mark.parametrize("key", REPLAYED)
def test_recorded_benchmark_outputs_replay_byte_for_byte(capsys, key):
    record = RECORDED[key]
    code = main(key.split())
    out = capsys.readouterr().out
    assert code == record["exit"]
    assert len(out.encode()) == record["bytes"]
    assert hashlib.sha256(out.encode()).hexdigest() == record["sha256"]


def _refuse_shape_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-shape object was built")

    monkeypatch.setattr(Tuple5, "__new__", refuse)


def test_cli_census_builds_no_shape_or_row_objects(capsys, monkeypatch):
    _refuse_shape_objects(monkeypatch)
    for fmt in ("json", "csv", "table"):
        run_cli(capsys, "census", "--p", 5, "--genus", 26, "--per-tuple", "--format", fmt)
        run_cli(capsys, "census", "--p", 3, "--genus", 120, "--per-tuple", "--format", fmt)


def test_cli_tuples_builds_no_shape_objects(capsys, monkeypatch):
    _refuse_shape_objects(monkeypatch)
    for fmt in ("json", "csv", "table"):
        run_cli(capsys, "tuples", "--p", 5, "--genus", 26, "--format", fmt)
        run_cli(capsys, "tuples", "--p", 3, "--genus", 120, "--format", fmt)


@pytest.mark.parametrize("command", [["census", "--per-tuple"], ["tuples"]])
def test_an_aligned_table_walks_the_shapes_once(capsys, monkeypatch, command):
    # the widths and the largest count come from the (t, n) blocks, so the
    # table walks the shapes only to write its rows
    walks = []

    def counted(p, g):
        walks.append((p, g))
        return shape_tables(p, g)

    for module in (cli, theorem_counts):
        monkeypatch.setattr(module, "shape_tables", counted)
    run_cli(capsys, *command, "--p", 3, "--genus", 120)
    assert walks == [(3, 120)]
