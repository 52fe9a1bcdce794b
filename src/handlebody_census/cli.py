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
is rendered for the other two.  The census rows and the shapes stream from
the same per-run records in every format, and an aligned table makes one
extra pass over the runs for its column widths.  A normal-form listing is
one join of its dump lines in table and JSON output, made a shared prefix
at a time (:meth:`~.verification.canonical.NormalForms.joined`), and a list
of them in CSV, which numbers each line.

Output is reproducible byte for byte; the only exception is the timestamp
header on table output, which --no-header suppresses.  ``akj`` prints its
bare value as its table, with no timestamp.  JSON and CSV never carry one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from datetime import datetime, timezone
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .counting import count_A
from .errors import BudgetExceededError, stop_reason
from .theorem_counts import CountReport, census
from .tuples import (
    Tuple5,
    admissible_tuples,
    require_genus,
    require_odd_prime,
    shape_case,
    shape_count,
    shape_runs,
)
from .verification import DEFAULT_STATE_BUDGET, compare, enumerate_canonical, orbit_count
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
    unless ``--no-header``.
    """

    json: Iterable[str]  # the JSON document, without its final newline
    header: list[str]  # the CSV header row
    csv: Iterable[str]  # the CSV body, each line ended by "\n"
    table: Iterable[str]  # the table after its timestamp, each line ended by "\n"
    stamped: bool = True  # the table starts with the timestamp line
    code: int = EXIT_OK


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


def _lines(lines: list[str]) -> list[str]:
    """Table lines as one chunk, each line ended by ``"\n"``."""
    return ["\n".join([*lines, ""])]


def _csv_line(cells: Iterable) -> str:
    """One row as :mod:`csv` writes it, ended by ``"\n"``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _flag_json(flag) -> dict:
    return {
        "location": flag.location,
        "paper_value": str(flag.paper_value),
        "computed_value": str(flag.computed_value),
    }


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


# ---------------------------------------------------------------------------
# subcommands

_SHAPE_COLUMNS = ["r", "s", "t", "m", "n"]
_TUPLES_HEADER = _SHAPE_COLUMNS + ["case"]
_CENSUS_HEADER = _TUPLES_HEADER + ["count", "flags"]


def _cmd_akj(args) -> Output:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.j < 0:
        raise ValueError(f"--j must be >= 0, got {args.j}")
    value = count_A(args.k, args.j)
    return Output(
        json=_dumps({"k": args.k, "j": args.j, "value": str(value)}),
        header=["k", "j", "value"],
        csv=[_csv_line([args.k, args.j, value])],
        table=_lines([str(value)]),
        stamped=False,
    )


def _json_flags(flags, indent: int) -> str:
    """A list of flags as ``json.dumps(..., indent=2)`` prints it nested
    ``indent`` spaces deep."""
    return json.dumps([_flag_json(f) for f in flags], indent=2).replace("\n", "\n" + " " * indent)


def _json_rows(p: int, g: int, rows: Iterable[str], tail: Iterable[str] = ()) -> Iterator[str]:
    """``{"p": p, "g": g, "rows": [...], ...}`` as ``json.dumps(obj, indent=2)``
    prints it, from rendered rows and the rendered keys after them (``tail``),
    one row at a time: the rows are never all held.  Each row comes with the
    ``",\n"`` that separates it from the row before; the first one's comma
    becomes the opening bracket, and the rest pass through a C-level chain."""

    def pieces():
        yield ['{\n  "p": %d,\n  "g": %d,\n  "rows": ' % (p, g)]
        first = next(row_iter, None)
        if first is None:
            yield ["[]"]
        else:
            yield from (["[" + first[1:]], row_iter, ["\n  ]"])
        yield from (tail, ["\n}"])

    row_iter = iter(rows)
    return chain.from_iterable(pieces())


def _run_rows(template: str, runs: Iterable[tuple[tuple, tuple]]) -> Iterator[str]:
    """Rows rendered a run at a time, one string a row.

    For each ``(head, columns)`` of ``runs``, ``template % head`` fills in
    what the run fixes, and a C-level ``map`` applies the result to each
    tuple of ``zip(*columns)``.  A run is not joined into one string: rows
    stay small objects, and the peak RSS with them.
    """
    return chain.from_iterable(
        map((template % head).__mod__, zip(*columns)) for head, columns in runs
    )


# Shape rows, rendered a run at a time (_run_rows): the run fills in r, s, t
# and the case, so what each row fills in (m, n, ...) is written %%d, %%s.
# A census run also fills in the flag field (_census_runs): the text of no
# flags when none of its rows has one, else %s for a text per row.
# A JSON row is its object as json.dumps(..., indent=2) prints it inside
# "rows", after the ",\n" that separates it from the row before.
_SHAPE_JSON_RUN = """,
    {
      "tuple": [
        %d,
        %d,
        %d,
        %%d,
        %%d
      ],
      "case": "%s\""""
_TUPLES_JSON_RUN = _SHAPE_JSON_RUN + "\n    }"
_CENSUS_JSON_RUN = _SHAPE_JSON_RUN + """,
      "count": "%%d",
      "flags": %s
    }"""
# In CSV only the census flag cell can need quoting, and it comes quoted by
# _csv_cell.
_TUPLES_CSV_RUN = "%d,%d,%d,%%d,%%d,%s\n"
_CENSUS_CSV_RUN = "%d,%d,%d,%%d,%%d,%s,%%d,%s\n"
# Aligned table rows: str.format puts in the column widths first.  The last
# column is never padded, since every row is right-stripped (_aligned).
_TUPLES_TABLE_RUN = "%-{}d  %-{}d  %-{}d  %%-{}d  %%-{}d  %s"
_CENSUS_TABLE_RUN = "%-{}d  %-{}d  %-{}d  %%-{}d  %%-{}d  %-{}s  %%-{}d  %s"


def _aligned(header: list[str], widths: list[int], template: str, runs, no_header: bool) -> Iterator[str]:
    """Rows of ``runs`` (:func:`_run_rows` records) aligned under ``header``,
    as ``ljust`` aligns cells: two spaces between columns, each row
    right-stripped and ended by ``"\n"``.

    ``widths`` holds the widest cell of each column but the last; the header
    widens them only when it is printed.
    """
    if not no_header:
        widths = list(map(max, widths, map(len, header)))
        yield "  ".join(map(str.ljust, header, widths + [0])).rstrip() + "\n"
    rows = _run_rows(template.format(*widths), runs)
    yield from map("%s\n".__mod__, map(str.rstrip, rows))


def _shape_runs(p: int, g: int):
    """Per run of :func:`shape_runs`: ``((r, s, t, case), (ms, ns))``."""
    for r, s, t, ms, ns in shape_runs(p, g):
        yield (r, s, t, shape_case((r, s, t, ms[0], ns[0])).text), (ms, ns)


def _tuples_table(p: int, g: int, no_header: bool) -> Iterator[str]:
    """The shapes aligned under their header, a run at a time, after a
    first pass over :func:`shape_runs` for the column widths."""
    top = (0,) * 5  # the largest r, s, t, m, n
    for r, s, t, ms, ns in shape_runs(p, g):
        top = tuple(map(max, top, (r, s, t, ms[-1], ns[0])))
    widths = [len(str(x)) for x in top]
    yield from _aligned(_TUPLES_HEADER, widths, _TUPLES_TABLE_RUN, _shape_runs(p, g), no_header)
    yield f"{shape_count(p, g)} admissible shape(s) for p={p} genus={g}\n"


def _cmd_tuples(args) -> Output:
    p = require_odd_prime(args.p)
    g = require_genus(args.genus)
    return Output(
        json=_json_rows(p, g, _run_rows(_TUPLES_JSON_RUN, _shape_runs(p, g))),
        header=_TUPLES_HEADER,
        csv=_run_rows(_TUPLES_CSV_RUN, _shape_runs(p, g)),
        table=_tuples_table(p, g, args.no_header),
    )


def _per_flags(report: CountReport, render) -> dict:
    """``render(flags)`` for every flags tuple a census row can carry."""
    return {flags: render(flags) for flags in [(), *report.shape_flags.values()]}


def _census_runs(report: CountReport, render):
    """Per run of the census: ``((r, s, t, case, flag field), columns)``.

    A run with no flagged row carries ``render(())``, its ``%`` doubled, as
    its flag field and ``(ms, ns, counts)`` as its columns.  Any other run
    carries ``"%s"`` there and adds a column of each row's ``render(flags)``
    (:func:`_per_flags`).
    """
    texts = _per_flags(report, render)
    unflagged = texts[()].replace("%", "%%")
    for r, s, t, case, ms, ns, counts, flags in report.iter_runs():
        if any(flags):
            yield (r, s, t, case.text, "%s"), (ms, ns, counts, map(texts.__getitem__, flags))
        else:
            yield (r, s, t, case.text, unflagged), (ms, ns, counts)


def _census_json(report: CountReport) -> Iterator[str]:
    """The census as ``json.dumps(obj, indent=2)`` prints it, a run at a time."""
    rows = _run_rows(_CENSUS_JSON_RUN, _census_runs(report, functools.partial(_json_flags, indent=6)))
    tail = [',\n  "total": "%d"' % report.total]
    if report.reference_total is not None:
        tail.append(',\n  "reference_total": "%d"' % report.reference_total)
    tail.append(',\n  "flags": ' + _json_flags(report.flags, 2))
    return _json_rows(report.p, report.g, rows, tail)


def _census_csv(report: CountReport) -> Iterator[str]:
    """The census CSV body, a run at a time."""
    return _run_rows(_CENSUS_CSV_RUN, _census_runs(report, lambda flags: _csv_cell(_flag_cell(flags))))


def _census_table(report: CountReport, per_tuple: bool, no_header: bool) -> Iterator[str]:
    """The census table: with ``per_tuple`` its rows aligned under their
    header, a run at a time, after a first pass over
    :meth:`CountReport.iter_runs` for the column widths; then the total."""
    if per_tuple:
        top, cases = (0,) * 6, set()  # the largest r, s, t, m, n and count
        for r, s, t, case, ms, ns, counts, _ in report.iter_runs():
            top = tuple(map(max, top, (r, s, t, ms[-1], ns[0], max(counts))))
            cases.add(case.text)
        *widths, count = (len(str(x)) for x in top)
        widths += [max(map(len, cases), default=0), count]
        runs = _census_runs(report, _flag_cell)
        yield from _aligned(_CENSUS_HEADER, widths, _CENSUS_TABLE_RUN, runs, no_header)
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
    fields = {"case": shape_case(v).value, "count": str(len(forms))}
    obj = {"p": p, "tuple": v, **fields}
    summary = f"{len(forms)} canonical state(s) for p={p} shape {v}"
    if not args.list:
        header = _SHAPE_COLUMNS + list(fields)
        return Output(_dumps(obj), header, [_csv_line([*v, *fields.values()])], _lines([summary]))
    heading = _lines([summary, f"p={p} v={','.join(map(str, v))}"])
    return Output(_json_states(obj, forms), ["index", "state"], _dump_csv(forms), _states_table(heading, forms))


def _states_table(heading: list[str], forms: NormalForms) -> Iterator[str]:
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
    writes it.

    A dump line holds only digits, ``,`` and ``|``, so :mod:`csv` quotes it
    exactly when it holds a comma.  Every line of one listing has the same
    number of residues in each class, so either every line holds a comma or
    none does, and one template serves the whole listing.
    """
    listed = forms.lines()
    template = '%d,"%s"\n' if listed and "," in listed[0] else "%d,%s\n"
    yield from map(template.__mod__, enumerate(listed))


def _cmd_orbits(args) -> Output:
    p = require_odd_prime(args.p)
    v = Tuple5.parse(args.tuple)
    stats = orbit_count(p, v, budget=args.max_states)
    fields = {
        "orbits": str(stats.orbits),
        "state_space_size": stats.state_space_size,
        "valid_states": stats.valid_states,
        "largest_orbit": stats.largest_orbit,
    }
    return Output(
        json=_dumps({"p": p, "tuple": v, **fields}),
        header=_SHAPE_COLUMNS + list(fields),
        csv=[_csv_line([*v, *fields.values()])],
        table=_lines([
            f"shape {v} at p={p}: {stats.orbits} orbit(s)",
            f"state space {stats.state_space_size} raw, "
            f"{stats.valid_states} valid, largest orbit {stats.largest_orbit}",
        ]),
    )


# A verify CSV row is its JSON row with the tuple and the agreement spread
# into cells and the errors left out (csv writes a null as an empty cell);
# these keys fill the cells between.
_VERIFY_KEYS = [
    "case", "theorem_count", "canonical_count", "orbit_count",
    "state_space_size", "valid_states", "largest_orbit",
]


def _comparison_cells(row: dict) -> list:
    cells = [*row["tuple"], *(row[k] for k in _VERIFY_KEYS)]
    return cells + [*row["agreement"].values(), row["complete"]]


def _cmd_verify(args) -> Output:
    p = require_odd_prime(args.p)
    if (args.tuple is None) == (args.genus is None):
        raise ValueError("verify needs exactly one of --tuple or --genus")
    if args.tuple is not None:
        shapes = [Tuple5.parse(args.tuple)]
        target = {"tuple": shapes[0]}
    else:
        shapes = admissible_tuples(p, require_genus(args.genus))
        target = {"g": args.genus}
    rows, lines = [], []
    for v in shapes:
        r = compare(p, v, budget=args.max_states)
        row = {
            "tuple": v,
            "case": r.case.value,
            "theorem_count": str(r.theorem_count),
            "canonical_count": None if r.canonical_count is None else str(r.canonical_count),
            "orbit_count": None if r.orbit_count is None else str(r.orbit_count),
            "state_space_size": r.state_space_size,
            "valid_states": r.valid_states,
            "largest_orbit": r.largest_orbit,
            "agreement": r.agreement,
            "complete": r.complete,
            "errors": r.errors,
        }
        rows.append(row)
        verdict = "agree" if all(x is True for x in r.agreement.values()) else "DIFFER"
        lines.append(
            f"shape {v}: theorem {r.theorem_count}, canonical {row['canonical_count'] or '?'}, "
            f"orbits {row['orbit_count'] or '?'} [{verdict if r.complete else 'incomplete'}]"
        )
        lines += [f"  {err}" for err in r.errors]
    incomplete = any(not row["complete"] for row in rows)
    return Output(
        json=_dumps({"p": p, **target, "rows": rows, "incomplete": incomplete}),
        header=_SHAPE_COLUMNS + _VERIFY_KEYS + [
            "agree_theorem_canonical", "agree_theorem_orbit", "agree_canonical_orbit", "complete",
        ],
        csv=map(_csv_line, map(_comparison_cells, rows)),
        table=_lines(lines),
        code=EXIT_INCOMPLETE if incomplete else EXIT_OK,
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
    return out.code


def run() -> None:
    # A reader that stops early (``| head``) ends the process as it ends
    # ``cat``: by SIGPIPE's default action, with no traceback.  Imported
    # here, so that importing the module for ``main`` does not load it.
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
