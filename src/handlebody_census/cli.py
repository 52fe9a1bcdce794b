"""Command-line front end.

Subcommands: akj, tuples, census, canonical, orbits, verify.  Formats:
table (human), json, csv.  Counts serialize as decimal strings in JSON so
arbitrary precision survives any consumer.  Exit codes: 0 success
(discrepancy flags against published values are findings, not failures),
1 usage error, 2 computation incomplete (an enumeration would exceed its
budget, decided from a count before anything is enumerated, or an
allocation failed).

``--max-states`` is one budget: normal forms for ``canonical``, raw states
for ``orbits``, both per shape for ``verify``.  A negative budget, like a
``--workers`` below 1, is a usage error.

Each subcommand answers with three lazy streams of text chunks, one per
format (:class:`Output`), and :func:`_render` writes the asked one; nothing
is rendered for the other two.  An answer that is one record (``akj``,
``canonical`` without ``--list``, ``orbits``) takes all three from its JSON
object (:func:`_record`).  The census rows (the tables of
:meth:`~.theorem_counts.CountReport.iter_tables`) and the shapes (those of
:func:`~.tuples.shape_tables`, whose runs carry their rows' case) are
rendered an (r, s) table at a time in every format (:func:`_shape_rows`),
from one bytes ``%`` template per list of runs (:func:`~.tuples.per_table`)
of its rows' text, with each start a placeholder and each count a ``%d``:
a table is one ``replace`` of the placeholder by its r and s and one ``%``
of its counts.  The text of each row's m and n, with its case, is made
once per case and (ms, ns) columns of a run, that of t once per list of
runs, and the templates kept for reuse are capped (:data:`_KEPT`); a table
whose template is not kept gets one made for it alone.  The tables are
written in chunks of about 512 KiB.  Both aligned tables are one renderer
(:func:`_aligned_table`), which takes the column widths and the largest
count from the (t, n) blocks of :func:`~.tuples.genus_blocks`, with no
pass over the shapes.  A normal-form listing is one join of its dump
lines in table and JSON output, made a shared prefix at a time
(:meth:`~.verification.canonical.NormalForms.joined`), and in CSV, which
numbers each line, one template per prefix, filled in with each line's
index and the rest of the line.

``verify`` reads the same walk, a shape at a time, or its one ``--tuple``,
and compares each shape as the asked format's stream reaches it: the
shape's JSON row, CSV line or table lines are written before the next
shape is compared, and no row is held.  Its JSON rows go through
:func:`_json_rows`, as the census and shape rows do, and its exit code is
read once the stream is written (``Output.code``).

Output is reproducible byte for byte; the only exception is the timestamp
header on table output, which --no-header suppresses.  ``akj`` prints its
bare value as its table, with no timestamp.  JSON and CSV never carry one.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys
from collections import deque
from datetime import datetime, timezone
from itertools import chain, combinations, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .counting import count_A
from .errors import BudgetExceededError, stop_reason
from .theorem_counts import CountReport, census
from .tuples import (
    CaseTag,
    Run,
    Tuple5,
    genus_blocks,
    genus_of,
    per_table,
    require_genus,
    require_odd_prime,
    shape_case,
    shape_count,
    shape_tables,
)
from .verification import DEFAULT_STATE_BUDGET, ROUTES, Comparison, compare, enumerate_canonical, orbit_count
from .verification.canonical import NormalForms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1, and every
    argument that starts like a negative number read as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Before 3.13 argparse reads only plain numbers as negative values, so
        # "--tuple -1,0,0,1,0" failed as a missing argument instead of reaching
        # the tuple parser.  No option here starts with "-" and a digit.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class Output(NamedTuple):
    """A subcommand's answer in every format; :func:`_render` writes only the asked one.

    ``json``, ``csv`` and ``table`` are lazy streams of text chunks: nothing
    is rendered for the formats that are not asked.  The CSV header row and
    the table's timestamp line are not in them; :func:`_render` adds those
    unless ``--no-header``.  ``code`` gives the exit code, and :func:`main`
    calls it only after the stream is written: ``verify`` exits 2 when any
    of the shapes it streams is incomplete.
    """

    json: Iterable[str]  # the JSON document, without its final newline
    header: list[str]  # the CSV header row
    csv: Iterable[str]  # the CSV body, each line ended by "\n"
    table: Iterable[str]  # the table after its timestamp, each line ended by "\n"
    stamped: bool = True  # the table starts with the timestamp line
    code: Callable[[], int] = lambda: EXIT_OK


def _render(out: Output, args) -> None:
    """Write ``out`` to stdout in ``args.format``."""
    if args.format == "json":
        sys.stdout.writelines(out.json)
        sys.stdout.write("\n")
    elif args.format == "csv":
        if not args.no_header:
            sys.stdout.write(_csv_line(out.header))
        sys.stdout.writelines(out.csv)
    else:
        if out.stamped and not args.no_header:
            now = datetime.now(timezone.utc).isoformat(timespec="seconds")
            sys.stdout.write(f"# handlebody-census {args.command} generated {now}\n")
        sys.stdout.writelines(out.table)


def _lines(lines: list[str]) -> Iterator[str]:
    """Table lines as one chunk, each line ended by ``"\n"``, made when it is read."""
    yield "\n".join([*lines, ""])


def _csv_line(cells: Iterable) -> str:
    """One row as :mod:`csv` writes it, ended by ``"\n"``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _flag_cell(flags) -> str:
    return "; ".join(
        f"{f.location}: published={f.paper_value} computed={f.computed_value}"
        for f in flags
    )


def _csv_cell(text: str) -> str:
    """``text`` as :mod:`csv` writes it in the last cell of a row, quoted if need be."""
    return _csv_line(["", text])[1:-1]


def _dumps(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` as one chunk, made when it is read."""
    yield json.dumps(obj, indent=2)


_SHAPE_COLUMNS = ["r", "s", "t", "m", "n"]


def _record(obj: dict, lines: list[str], stamped: bool = True) -> Output:
    """The answer that is one record: ``obj`` as its JSON, one CSV row of
    ``obj``'s keys after ``p``, with ``tuple`` spread into r, s, t, m, n,
    and ``lines`` as its table, each rendered only when it is read."""
    cells = {}
    for key, value in obj.items():
        if key == "tuple":
            cells.update(zip(_SHAPE_COLUMNS, value))
        elif key != "p":
            cells[key] = value
    return Output(_dumps(obj), list(cells), map(_csv_line, [cells.values()]), _lines(lines), stamped)


# ---------------------------------------------------------------------------
# subcommands

_TUPLES_HEADER = _SHAPE_COLUMNS + ["case"]
_CENSUS_HEADER = _TUPLES_HEADER + ["count", "flags"]


def _cmd_akj(args) -> Output:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.j < 0:
        raise ValueError(f"--j must be >= 0, got {args.j}")
    value = str(count_A(args.k, args.j))
    return _record({"k": args.k, "j": args.j, "value": value}, [value], stamped=False)


def _nested(obj, indent: int) -> str:
    """``obj`` as ``json.dumps(..., indent=2)`` prints it nested ``indent``
    spaces deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + " " * indent)


def _json_flags(flags, indent: int) -> str:
    """A list of flags as :func:`_nested` prints it."""
    return _nested([{key: str(value) for key, value in dataclasses.asdict(flag).items()} for flag in flags], indent)


def _json_rows(head: dict, rows: Iterable[str], tail: Iterable[str] = ()) -> Iterator[str]:
    """``{**head, "rows": [...], ...}`` as ``json.dumps(obj, indent=2)``
    prints it, from rendered rows and the rendered keys after them (``tail``,
    read once the last row is written), one row at a time: the rows are
    never all held.  Each row comes with the ``",\n"`` that separates it
    from the row before; the first one's comma becomes the opening bracket,
    and the rest pass through a C-level chain."""

    def pieces():
        yield [json.dumps(head, indent=2)[: -len("\n}")] + ',\n  "rows": ']
        first = next(row_iter, None)
        if first is None:
            yield ["[]"]
        else:
            yield from (["[" + first[1:]], row_iter, ["\n  ]"])
        yield from (tail, ["\n}"])

    row_iter = iter(rows)
    return chain.from_iterable(pieces())


# The census and the shapes are written in chunks of at least this many
# bytes, each a whole number of (r, s) tables.  A writer that gathers stdout
# in an io.StringIO peaks higher with smaller or larger chunks, by where the
# heap puts them.  Peak RSS of the census-large-genus benchmark worker, one
# run per seed 1-10 at each of five checkout paths (1 MiB chunks without
# the templates of _shape_rows: 87.2-87.5 MB at all five): 512 KiB
# 87.3-87.6 MB, but for one run of 50 at 97.8 that eight reruns put at
# 87.3; 1 MiB 90.8-91.0 at every path.  At two of the paths: 2 MiB
# 91.9-92.2, 256 KiB 87.4-87.7 but for one run of 20 at 99.9.  Before the
# templates, a chunk per table (about 9 KB) raised the peak by 10 MB.
_CHUNK = 1 << 19

# The templates of _shape_rows kept for reuse hold at most this many bytes.
# A template for every list of runs would grow as g^3: at p=3 they hold
# 8.9 MiB in JSON at g=1000 (4.6 MiB of them for lists used once, never
# kept) and 34 MiB at g=2000.  2 MiB keeps the templates of 76 % of the
# reuse in JSON at g=1000 and of 66 % in CSV at g=2000, and all of them at
# the benchmark's sizes (at most 0.56 MiB).
_KEPT = 2 << 20

# A row's start in a kept template; no row text holds it.
_START = b"\x00"


def _literal(text: str) -> bytes:
    """``text`` in a template, as ``%`` fills it back in."""
    return text.encode().replace(b"%", b"%%")


def _shape_rows(
    tables: Iterable[tuple], cells: tuple[str, str, str, str], ends=None, width: int = 0
) -> Iterator[str]:
    """Shape rows rendered an (r, s) table at a time, written in chunks of
    about :data:`_CHUNK` bytes.

    ``tables`` yields ``(r, s, runs, counts, flags)`` as
    :meth:`CountReport.iter_tables` does, or the shapes without counts as
    :func:`~.tuples.shape_tables` yields them, ``(r, s, runs)``.  ``cells``
    holds the templates of a row's pieces: the start, which takes r and s;
    t; m and n; and the case, with the text between it and the count.  A
    census row then ends with its count and the text after it: with
    ``ends = (end, mark)``, ``end`` for a row with no flags and
    ``mark(flags)`` for one with some, whose count is padded to ``width``.

    A table is its list of runs' template, the UTF-8 text of its rows with
    each row's start a :data:`_START` and each count a ``%d``, after one
    ``replace`` of :data:`_START` by the start and one ``%`` of the counts:
    on bytes, ``%`` skips to the next ``%`` by ``memchr``, where on a str
    it reads every character.  A template is made by one join of its
    pieces, ``k`` a row (3, or 4 with the count), filled a piece kind at a
    time by slice assignment: the text of each t once per list of runs
    (:func:`~.tuples.per_table`), that of m and n with the text of the
    run's case once per case and (ms, ns) columns of a run, shared by every
    table that holds them.  The list of runs of r+s = u is first met at (0,
    u), in the r = 0 pass, and serves u-1 tables more, u with the (u, 0)
    table when that table shares it; its template is kept from there while
    the kept ones fit in :data:`_KEPT` bytes, the oldest given up first:
    each row of a later list is reused more.  A table whose template is
    not kept, such as the one (u, 0) table of a list of its own, gets a
    template made for it alone, with its start in place; so does a flagged
    table, whose flagged rows hold their padded count and ``mark(flags)``.
    The fixed text of ``cells`` and of the cases holds no ``%`` and no NUL.
    """
    start_cell, t_cell, mn_cell, case_cell = cells
    start_cell, t_cell = start_cell.encode(), t_cell.encode()

    @functools.cache
    def mn_texts(case: CaseTag, ms: range, ns: range) -> list[bytes]:
        """The m, n and case texts of a run's rows in the case."""
        cell = (mn_cell + (case_cell % case.value).replace("%", "%%")).encode()
        return list(map(cell.__mod__, zip(ms, ns)))

    end, mark = ends or ("", None)
    k = 3 if ends is None else 4
    slot = b"%d" + _literal(end)  # a census row's count and end

    class Texts:
        """What a list of runs renders with: its template while it is kept,
        the t text of each run and its number of rows, the runs' m, n
        texts, and the rows in all."""

        def __init__(self, runs: list[Run]):
            self.template = None
            self.lens = [len(ms) for _, ms, _, _ in runs]
            self.ts = [t_cell % t for t, _, _, _ in runs]
            self.texts = [mn_texts(case, ms, ns) for _, ms, ns, case in runs]
            self.rows = sum(self.lens)

        def fill(self, start: bytes, slots: list[bytes]) -> bytes:
            """The rows' template: each row ``start``, its t, m, n and case
            texts and, in a census, its slot of ``slots``."""
            pieces = [start] * (k * self.rows)
            pieces[1::k] = chain.from_iterable(map(repeat, self.ts, self.lens))
            pieces[2::k] = chain.from_iterable(self.texts)
            if k == 4:
                pieces[3::k] = slots
            return b"".join(pieces)

    kept, held = deque(), 0  # the kept templates' lists, oldest first, and their bytes
    chunk, size = [], 0
    for (r, s, _, *counted), texts in per_table(tables, Texts):
        counts, flags = counted or (None, None)
        if not texts.rows:
            continue
        start = start_cell % (r, s)
        if flags:  # a template of its own, the flagged rows' counts and ends filled in
            template = texts.fill(start, [
                slot if not f else _literal(str(c).ljust(width) + mark(f)) for c, f in zip(counts, flags)
            ])
            counts = [c for c, f in zip(counts, flags) if not f]
        elif texts.template is not None:
            template = texts.template.replace(_START, start)
        elif s and not r:  # first met, at (0, s): s-1 tables more share the list
            texts.template = texts.fill(_START, [slot] * texts.rows)
            template = texts.template.replace(_START, start)
            kept.append(texts)
            held += len(texts.template)
            while held > _KEPT:
                oldest = kept.popleft()
                held -= len(oldest.template)
                oldest.template = None
        else:
            template = texts.fill(start, [slot] * texts.rows)
        text = template if counts is None else template % tuple(counts)
        chunk.append(text)
        size += len(text)
        if size >= _CHUNK:
            yield b"".join(chunk).decode()
            chunk, size = [], 0
    if chunk:
        yield b"".join(chunk).decode()


# Shape row pieces (_shape_rows).  The cells templates render a row's start
# (its r and s), its t with the separator after it, its m and n, and its
# case with the text between it and the count; a census row's end, after
# its count, holds its flag field.
# A JSON row is its object as json.dumps(..., indent=2) prints it inside
# "rows", after the ",\n" that separates it from the row before.
_JSON_CELLS = (',\n    {\n      "tuple": [\n        %d,\n        %d,\n        ', "%d,\n        ", "%d,\n        %d")
_TUPLES_JSON_CELLS = (*_JSON_CELLS, '\n      ],\n      "case": "%s"\n    }')
_CENSUS_JSON_CELLS = (*_JSON_CELLS, '\n      ],\n      "case": "%s",\n      "count": "')
_CENSUS_JSON_END = '",\n      "flags": %s\n    }'
# In CSV only the census flag cell can need quoting, and it comes quoted by
# _csv_cell.
_TUPLES_CSV_CELLS = ("%d,%d,", "%d,", "%d,%d", ",%s\n")
_CENSUS_CSV_CELLS = ("%d,%d,", "%d,", "%d,%d", ",%s,")
_CENSUS_CSV_END = ",%s\n"
# Aligned table rows (_aligned_table): str.format puts in the column widths
# first.  A row ends at its last nonempty cell, unpadded, as a right-stripped
# row does: a shape row at its case, a census row with no flags at its count.
_TABLE_CELLS = ("%-{}d  %-{}d  ", "%-{}d  ", "%-{}d  %-{}d", "  %-{}s  ")


def _widths(p: int, g: int) -> list[int]:
    """The widest cell of each column r, s, t, m, n and case of the shapes
    of (p, g), from the :func:`~.tuples.genus_blocks` (t, n, K).  A block
    holds (K,0,t,0,n), (0,K,t,0,n) and (0,0,t,K,n), so the largest r, s and
    m are all the largest K; and it holds a shape in case st, whose text is
    the widest case text."""
    blocks = list(genus_blocks(p, g))
    t, n, K = map(max, zip(*blocks or [(0, 0, 0)]))
    return [len(str(x)) for x in (K, K, t, K, n)] + [len(CaseTag.CASE_ST.value) if blocks else 0]


def _aligned_table(tables: Iterable[tuple], header: list[str], widths: list[int], no_header: bool) -> Iterator[str]:
    """The rows of ``tables`` (:func:`_shape_rows`) aligned under ``header``
    unless ``no_header``, with two spaces between columns.  ``widths`` holds
    the widest cell of every column but the last, widened to the header's
    when it is printed: r, s, t, m, n for the shapes, whose case comes last,
    and with the case and the count for the census rows, whose flags do."""
    if not no_header:
        widths = list(map(max, widths, map(len, header)))
        yield "  ".join(map(str.ljust, header, widths + [0])).rstrip() + "\n"
    wr, ws, wt, wm, wn, *counted = widths
    start, t, mn, case = _TABLE_CELLS
    cells = (start.format(wr, ws), t.format(wt), mn.format(wm, wn))
    if not counted:
        yield from _shape_rows(tables, (*cells, "  %s\n"))
    else:
        wcase, wcount = counted
        ends = ("\n", lambda flags: "  %s\n" % _flag_cell(flags))
        yield from _shape_rows(tables, (*cells, case.format(wcase)), ends, wcount)


def _tuples_table(tables: Iterable[tuple], p: int, g: int, no_header: bool) -> Iterator[str]:
    """The shapes of the walk ``tables`` aligned, in column widths from the
    (t, n) blocks (:func:`_widths`), then their number."""
    yield from _aligned_table(tables, _TUPLES_HEADER, _widths(p, g)[:5], no_header)
    yield f"{shape_count(p, g)} admissible shape(s) for p={p} genus={g}\n"


def _cmd_tuples(args) -> Output:
    p = require_odd_prime(args.p)
    g = require_genus(p, args.genus)
    tables = shape_tables(p, g)  # one walk, read by the one format written
    return Output(
        json=_json_rows({"p": p, "g": g}, _shape_rows(tables, _TUPLES_JSON_CELLS)),
        header=_TUPLES_HEADER,
        csv=_shape_rows(tables, _TUPLES_CSV_CELLS),
        table=_tuples_table(tables, p, g, args.no_header),
    )


def _flag_ends(end: str, render) -> tuple[str, Callable]:
    """The ends of a census row (:func:`_shape_rows`) whose end is the
    template ``end`` filled in with ``render(flags)``."""
    return end % render(()), lambda flags: end % render(flags)


def _census_json(report: CountReport) -> Iterator[str]:
    """The census as ``json.dumps(obj, indent=2)`` prints it, an (r, s)
    table at a time."""
    ends = _flag_ends(_CENSUS_JSON_END, functools.partial(_json_flags, indent=6))
    rows = _shape_rows(report.iter_tables(), _CENSUS_JSON_CELLS, ends)
    tail = [',\n  "total": "%d"' % report.total]
    if report.reference_total is not None:
        tail.append(',\n  "reference_total": "%d"' % report.reference_total)
    tail.append(',\n  "flags": ' + _json_flags(report.flags, 2))
    return _json_rows({"p": report.p, "g": report.g}, rows, tail)


def _census_csv(report: CountReport) -> Iterator[str]:
    """The census CSV body, an (r, s) table at a time."""
    ends = _flag_ends(_CENSUS_CSV_END, lambda flags: _csv_cell(_flag_cell(flags)))
    return _shape_rows(report.iter_tables(), _CENSUS_CSV_CELLS, ends)


def _census_table(report: CountReport, per_tuple: bool, no_header: bool) -> Iterator[str]:
    """The census table: with ``per_tuple`` its rows aligned, in column
    widths and a count width from the (t, n) blocks (:func:`_widths` and
    :meth:`CountReport.largest_count`); then the total."""
    if per_tuple:
        widths = _widths(report.p, report.g) + [len(str(report.largest_count()))]
        yield from _aligned_table(report.iter_tables(), _CENSUS_HEADER, widths, no_header)
    yield f"total {report.total} ({report.shape_count} shapes)\n"
    if report.reference_total is not None:
        yield f"published reference total {report.reference_total}\n"
    for flag in report.flags:
        yield f"flag: {_flag_cell([flag])}\n"


def _cmd_census(args) -> Output:
    report = census(args.p, args.genus)
    return Output(
        json=_census_json(report),
        header=_CENSUS_HEADER,
        csv=_census_csv(report),
        table=_census_table(report, args.per_tuple, args.no_header),
    )


def _cmd_canonical(args) -> Output:
    p = require_odd_prime(args.p)
    v = Tuple5.parse(args.tuple)
    forms = enumerate_canonical(p, v, budget=args.max_states)
    obj = {"p": p, "tuple": v, "case": shape_case(v).value, "count": str(len(forms))}
    summary = f"{len(forms)} canonical state(s) for p={p} shape {v}"
    if not args.list:
        return _record(obj, [summary])
    heading = _lines([summary, f"p={p} v={','.join(map(str, v))}"])
    return Output(_json_states(obj, forms), ["index", "state"], _dump_csv(forms), _states_table(heading, forms))


def _states_table(heading: Iterable[str], forms: NormalForms) -> Iterator[str]:
    """The table of a state dump: ``heading``, then one dump line a form."""
    yield from heading
    if len(forms):
        yield forms.joined("\n")
        yield "\n"


def _json_states(obj: dict, forms: NormalForms) -> Iterator[str]:
    """``obj`` with ``"states"``, the dump lines of ``forms``, added, as
    ``json.dumps(obj, indent=2)`` prints it.  A dump line holds only digits,
    ``,`` and ``|``, so it needs no escaping, and the array is one join of
    the listing."""
    yield json.dumps(obj, indent=2)[: -len("\n}")]
    yield ',\n  "states": ['
    if len(forms):
        yield '\n    "'
        yield forms.joined('",\n    "')
        yield '"\n  '
    yield "]\n}"


def _dump_csv(forms: NormalForms) -> Iterator[str]:
    """The CSV body of a state dump, ``index,state`` a line, as :mod:`csv`
    writes it, a head of :meth:`NormalForms.split` at a time: one template
    per head, filled in with the index and the tail of each line.

    A dump line holds only digits, ``,`` and ``|``, so :mod:`csv` quotes it
    exactly when it holds a comma, and it holds no ``%``.  Every line of one
    listing has the same number of residues in each class, so either every
    line holds a comma or none does.
    """

    def parts():
        start, quote = 0, None
        for heads, tails in forms.split():
            if quote is None:
                quote = '"' if "," in heads[0] + tails[0] else ""
            for head in heads:
                yield map(f"%d,{quote}{head}%s{quote}\n".__mod__, enumerate(tails, start))
                start += len(tails)

    return chain.from_iterable(parts())


def _cmd_orbits(args) -> Output:
    p = require_odd_prime(args.p)
    v = Tuple5.parse(args.tuple)
    stats = orbit_count(p, v, budget=args.max_states)
    return _record({"p": p, "tuple": v, **dataclasses.asdict(stats), "orbits": str(stats.orbits)}, [
        f"shape {v} at p={p}: {stats.orbits} orbit(s)",
        f"state space {stats.state_space_size} raw, "
        f"{stats.valid_states} valid, largest orbit {stats.largest_orbit}",
    ])


def _cmd_verify(args) -> Output:
    """Each shape's comparison, made as the asked format's stream reaches it
    and written at once: no row is held.  Every usage check runs here,
    before the first byte is written."""
    p = require_odd_prime(args.p)
    if (args.tuple is None) == (args.genus is None):
        raise ValueError("verify needs exactly one of --tuple or --genus")
    if args.tuple is not None:
        v = Tuple5.parse(args.tuple)
        genus_of(p, v)  # an inadmissible shape is a usage error too
        head, shapes = {"p": p, "tuple": v}, [v]
    else:
        g = require_genus(p, args.genus)
        head = {"p": p, "g": g}
        shapes = (
            (r, s, t, m, n) for r, s, runs in shape_tables(p, g) for t, ms, ns, _ in runs for m, n in zip(ms, ns)
        )
    incomplete = False

    def rows() -> Iterator[dict]:
        """Each shape's JSON row: the fields after p, with the case's text and
        the counts as decimal strings."""
        nonlocal incomplete
        for v in shapes:
            r = compare(p, v, budget=args.max_states)
            incomplete |= not r.complete
            row = {field.name: getattr(r, field.name) for field in dataclasses.fields(r)[1:]}
            row["case"] = r.case.value
            for route in ROUTES:
                row[route.field] = None if row[route.field] is None else str(row[route.field])
            yield row

    def table() -> Iterator[str]:
        empty = True
        for row in rows():
            empty = False
            counts = ", ".join(f"{route.label} {row[route.field] or '?'}" for route in ROUTES)
            verdict = "agree" if all(x is True for x in row["agreement"].values()) else "DIFFER"
            yield f"shape {row['tuple']}: {counts} [{verdict if row['complete'] else 'incomplete'}]\n"
            yield from (f"  {err}\n" for err in row["errors"])
        if empty:
            yield f"0 admissible shape(s) for p={p} genus={args.genus}: nothing to verify\n"

    def tail() -> Iterator[str]:
        yield ',\n  "incomplete": ' + json.dumps(incomplete)

    # A CSV row is its JSON row with the tuple and the agreement spread into
    # cells and the errors left out (csv writes a null as an empty cell); the
    # Comparison fields between the tuple and the agreement, by name, head
    # the cells between.
    names = [field.name for field in dataclasses.fields(Comparison)]
    keys = names[names.index("tuple") + 1 : names.index("agreement")]
    pairs = [(a.name, b.name) for a, b in combinations(ROUTES, 2)]
    return Output(
        json=_json_rows(head, (",\n    " + _nested(row, 4) for row in rows()), tail()),
        header=[*_SHAPE_COLUMNS, *keys, *("agree_%s_%s" % pair for pair in pairs), "complete"],
        csv=(
            _csv_line([
                *row["tuple"], *(row[key] for key in keys),
                *(row["agreement"]["%s_vs_%s" % pair] for pair in pairs), row["complete"],
            ])
            for row in rows()
        ),
        table=table(),
        code=lambda: EXIT_INCOMPLETE if incomplete else EXIT_OK,
    )


# ---------------------------------------------------------------------------
# parser


def _at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _arg(*flags, **options):
    return flags, options


_P = _arg("--p", type=int, required=True, help="odd prime")
_GENUS = _arg("--genus", type=int, required=True, help="genus, >= 1")
_TUPLE = _arg("--tuple", required=True, metavar="r,s,t,m,n")
_MAX_STATES = _arg(
    "--max-states", type=_at_least(0), default=DEFAULT_STATE_BUDGET,
    help="budget, >= 0: normal forms (canonical), raw states (orbits), both per shape "
    "(verify); default %(default)s",
)
_WORKERS = _arg(
    "--workers", type=_at_least(1), default=1, help="accepted, >= 1; the orbit engine runs on one thread"
)
_FORMAT = _arg(
    "--format", choices=["table", "json", "csv"], default="table", help="output format (default table)"
)
_NO_HEADER = _arg(
    "--no-header", action="store_true", help="suppress the table timestamp line and the CSV header row"
)

# Per subcommand: its function, help and arguments.
_COMMANDS = {
    "akj": (_cmd_akj, "closed-form nondecreasing-tuple count", [
        _arg("--k", type=int, required=True, help="alphabet size, >= 1"),
        _arg("--j", type=int, required=True, help="tuple length, >= 0"),
    ]),
    "tuples": (_cmd_tuples, "admissible shapes for (p, genus)", [_P, _GENUS]),
    "census": (_cmd_census, "class counts for (p, genus)", [
        _P, _GENUS,
        _arg("--per-tuple", action="store_true", help="show per-shape rows in table output"),
    ]),
    "canonical": (_cmd_canonical, "normal-form states of one shape", [
        _P, _TUPLE, _arg("--list", action="store_true", help="dump the states"), _MAX_STATES,
    ]),
    "orbits": (_cmd_orbits, "move-orbit count of one shape", [_P, _TUPLE, _MAX_STATES, _WORKERS]),
    "verify": (_cmd_verify, "compare formula, normal-form, and orbit counts", [
        _P,
        _arg("--genus", type=int, help="verify every shape of this genus"),
        _arg("--tuple", metavar="r,s,t,m,n", help="verify one shape"),
        _MAX_STATES, _WORKERS,
    ]),
}

# The stderr line of a budget refusal or a failed allocation; verify reports
# a stopped shape on stdout instead.
_REFUSALS = {"canonical": "canonical enumeration incomplete", "orbits": "orbit count incomplete"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="handlebody-census",
        description=(
            "Exact census of cyclic prime-squared symmetry classes of "
            "handlebodies, with brute-force verification oracles."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for flags, options in [*arguments, _FORMAT, _NO_HEADER]:
            sub.add_argument(*flags, **options)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Counts are exact at any size, so lift Python's cap on int-to-decimal
    # conversion while printing them; argument parsing keeps the default.
    digit_limit = getattr(sys, "get_int_max_str_digits", None)
    if digit_limit is not None:
        previous = digit_limit()
        sys.set_int_max_str_digits(0)
    try:
        out = args.func(args)
        _render(out, args)
    except (BudgetExceededError, MemoryError) as exc:
        what = _REFUSALS.get(args.command, f"{args.command} incomplete")
        print(f"{what}: {stop_reason(exc)}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except ValueError as exc:
        print(f"handlebody-census {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(previous)
    return out.code()


def run() -> None:
    # A reader that stops early (``| head``) ends the process as it ends
    # ``cat``: by SIGPIPE's default action, with no traceback.  Imported
    # here, so that importing the module for ``main`` does not load it.
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
