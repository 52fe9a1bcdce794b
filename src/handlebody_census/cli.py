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
from typing import Iterable, Iterator, NamedTuple

from .counting import count_A
from .errors import BudgetExceededError, InadmissibleTupleError, stop_reason
from .theorem_counts import CountReport, census
from .tuples import (
    Tuple5,
    admissible_tuples,
    classify,
    iter_shapes,
    require_genus,
    require_odd_prime,
    shape_case,
    shape_count,
)
from .verification import DEFAULT_STATE_BUDGET, compare, enumerate_canonical, orbit_count

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
    """A subcommand's answer in every format; :func:`_render` reads only the asked one.

    ``json`` and ``rows`` are lazy iterables: nothing is rendered for the
    formats that are not asked.
    """

    json: Iterable[str]  # the JSON document, in pieces written as they are made
    header: list[str]  # CSV header, and the column heads of aligned table rows
    rows: Iterable  # CSV rows, and the rows of an aligned table
    lines: list[str]  # table lines
    aligned: bool = False  # the table starts with ``rows`` aligned under ``header``
    stamped: bool = True  # the table starts with the timestamp line
    code: int = EXIT_OK
    csv: Iterable[str] | None = None  # CSV body lines, in place of ``rows``


def _render(out: Output, args) -> None:
    """Write ``out`` to stdout in ``args.format``."""
    if args.format == "json":
        sys.stdout.writelines(out.json)
        sys.stdout.write("\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        if not args.no_header:
            writer.writerow(out.header)
        if out.csv is None:
            writer.writerows(out.rows)
        else:
            sys.stdout.writelines(out.csv)
    else:
        lines = out.lines
        if out.aligned:
            cells = [[str(x) for x in row] for row in out.rows]
            lines = _columns(cells, out.header, args.no_header) + lines
        if out.stamped and not args.no_header:
            now = datetime.now(timezone.utc).isoformat(timespec="seconds")
            lines = [f"# handlebody-census {args.command} generated {now}"] + lines
        if lines:
            sys.stdout.write("\n".join(lines) + "\n")


def _columns(rows: list[list[str]], headers: list[str], no_header: bool) -> list[str]:
    table = rows if no_header else [headers] + rows
    if not table:
        return []
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]


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
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["", text])
    return buf.getvalue()[1:]


def _dumps(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2)`` as one chunk, made when it is read."""
    yield json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# subcommands

_SHAPE_COLUMNS = ["r", "s", "t", "m", "n"]


def _cmd_akj(args) -> Output:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.j < 0:
        raise ValueError(f"--j must be >= 0, got {args.j}")
    value = count_A(args.k, args.j)
    return Output(
        json=_dumps({"k": args.k, "j": args.j, "value": str(value)}),
        header=["k", "j", "value"],
        rows=[[args.k, args.j, str(value)]],
        lines=[str(value)],
        stamped=False,
    )


def _json_block(obj, indent: int) -> str:
    """``json.dumps(obj, indent=2)`` as it reads nested ``indent`` spaces deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + " " * indent)


def _json_rows(p: int, g: int, rows: Iterable[str], tail: Iterable[str] = ()) -> Iterator[str]:
    """``{"p": p, "g": g, "rows": [...], ...}`` as ``json.dumps(obj, indent=2)``
    prints it, from rendered rows and the rendered keys after them (``tail``),
    one row at a time: the rows are never all held."""
    yield '{\n  "p": %d,\n  "g": %d,\n  "rows": ' % (p, g)
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        yield "[]"
    else:
        yield "[\n" + first
        for row in rows:
            yield ",\n" + row
        yield "\n  ]"
    yield from tail
    yield "\n}"


# The start of a shape row as json.dumps(..., indent=2) prints it inside
# "rows": its tuple and case; each subcommand closes the object.
_SHAPE_JSON_ROW = """\
    {
      "tuple": [
        %d,
        %d,
        %d,
        %d,
        %d
      ],
      "case": "%s\""""
_TUPLES_JSON_ROW = _SHAPE_JSON_ROW + "\n    }"
_CENSUS_JSON_ROW = _SHAPE_JSON_ROW + """,
      "count": "%d",
      "flags": %s
    }"""
# A census CSV row: only the flag cell can need quoting, and it comes quoted
# by _csv_cell.
_CENSUS_CSV_ROW = "%d,%d,%d,%d,%d,%s,%d,%s\n"


def _cmd_tuples(args) -> Output:
    p = require_odd_prime(args.p)
    g = require_genus(args.genus)
    # one generator for every format: only the asked one reads it
    rows = ((*v, shape_case(v).value) for v in iter_shapes(p, g))
    return Output(
        json=_json_rows(p, g, (_TUPLES_JSON_ROW % row for row in rows)),
        header=_SHAPE_COLUMNS + ["case"],
        rows=rows,
        lines=[f"{shape_count(p, g)} admissible shape(s) for p={p} genus={g}"],
        aligned=True,
    )


def _per_flags(report: CountReport, render) -> dict:
    """``render(flags)`` for every flags tuple a census row can carry."""
    return {flags: render(flags) for flags in [(), *report.shape_flags.values()]}


def _census_json(report: CountReport) -> Iterator[str]:
    """The census as ``json.dumps(obj, indent=2)`` prints it, row by template."""
    flags_json = _per_flags(report, lambda flags: _json_block([_flag_json(f) for f in flags], 6))
    rows = (
        _CENSUS_JSON_ROW % (r, s, t, m, n, case.value, count, flags_json[flags])
        for r, s, t, m, n, case, count, flags in report.iter_rows()
    )
    tail = [',\n  "total": "%d"' % report.total]
    if report.reference_total is not None:
        tail.append(',\n  "reference_total": "%d"' % report.reference_total)
    tail.append(',\n  "flags": ' + _json_block([_flag_json(f) for f in report.flags], 2))
    return _json_rows(report.p, report.g, rows, tail)


def _census_csv(report: CountReport) -> Iterator[str]:
    """The census CSV body, row by template."""
    flag_cell = _per_flags(report, lambda flags: _csv_cell(_flag_cell(flags)))
    return (
        _CENSUS_CSV_ROW % (r, s, t, m, n, case.value, count, flag_cell[flags])
        for r, s, t, m, n, case, count, flags in report.iter_rows()
    )


def _census_cells(report: CountReport):
    """Per row: r, s, t, m, n, case, count and the flag cell."""
    flag_cell = _per_flags(report, _flag_cell)
    for r, s, t, m, n, case, count, flags in report.iter_rows():
        yield (r, s, t, m, n, case.value, count, flag_cell[flags])


def _cmd_census(args) -> Output:
    report = census(args.p, args.genus)
    lines = [f"total {report.total} ({report.shape_count} shapes)"]
    if report.reference_total is not None:
        lines.append(f"published reference total {report.reference_total}")
    lines += [f"flag: {_flag_cell([flag])}" for flag in report.flags]
    return Output(
        json=_census_json(report),
        header=_SHAPE_COLUMNS + ["case", "count", "flags"],
        rows=_census_cells(report),
        lines=lines,
        aligned=args.per_tuple,
        csv=_census_csv(report),
    )


def _cmd_canonical(args) -> Output:
    p = require_odd_prime(args.p)
    v = Tuple5.parse(args.tuple)
    forms = enumerate_canonical(p, v, budget=args.max_states)
    fields = {"case": classify(v).value, "count": str(len(forms))}
    obj = {"p": p, "tuple": list(v.as_tuple()), **fields}
    lines = [f"{len(forms)} canonical state(s) for p={p} shape {v}"]
    header, rows = _SHAPE_COLUMNS + list(fields), [[*v.as_tuple(), *fields.values()]]
    if args.list:
        obj["states"] = listed = forms.lines()
        lines += [f"p={p} v={','.join(str(x) for x in v.as_tuple())}", *listed]
        header, rows = ["index", "state"], enumerate(listed)
    return Output(_dumps(obj), header, rows, lines)


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
        json=_dumps({"p": p, "tuple": list(v.as_tuple()), **fields}),
        header=_SHAPE_COLUMNS + list(fields),
        rows=[[*v.as_tuple(), *fields.values()]],
        lines=[
            f"shape {v} at p={p}: {stats.orbits} orbit(s)",
            f"state space {stats.state_space_size} raw, "
            f"{stats.valid_states} valid, largest orbit {stats.largest_orbit}",
        ],
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
        target = {"tuple": list(shapes[0].as_tuple())}
    else:
        shapes = admissible_tuples(p, require_genus(args.genus))
        target = {"g": args.genus}
    rows, lines = [], []
    for v in shapes:
        r = compare(p, v, budget=args.max_states)
        row = {
            "tuple": list(v.as_tuple()),
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
        rows=map(_comparison_cells, rows),
        lines=lines,
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
    except (ValueError, InadmissibleTupleError) as exc:
        print(f"handlebody-census {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(previous)
    return out.code


def run() -> None:
    sys.exit(main())
