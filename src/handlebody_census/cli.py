"""Command-line front end.

Subcommands: akj, tuples, census, canonical, orbits, verify.  Formats:
table (human), json, csv.  Counts serialize as decimal strings in JSON so
arbitrary precision survives any consumer.  Exit codes: 0 success
(discrepancy flags against published values are findings, not failures),
1 usage error, 2 computation incomplete (an enumeration would exceed its
budget; decided from a count, before anything is enumerated).

Output is reproducible byte for byte; the only exception is the timestamp
header on table output, which --no-header suppresses.  JSON and CSV never
carry a timestamp.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from datetime import datetime, timezone

from .counting import count_A
from .errors import BudgetExceededError, InadmissibleTupleError
from .theorem_counts import CountReport, census
from .tuples import (
    Tuple5,
    admissible_tuples,
    classify,
    require_genus,
    require_odd_prime,
    shape_case,
    shape_tuples,
)
from .verification import (
    DEFAULT_STATE_BUDGET,
    compare,
    enumerate_canonical,
    flatten,
    orbit_count,
    state_template,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _timestamp_line(command: str) -> str:
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# handlebody-census {command} generated {now}"


def _emit_table(lines: list[str], command: str, no_header: bool) -> None:
    if not no_header:
        lines = [_timestamp_line(command)] + lines
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _emit_csv(header: list[str], rows, no_header: bool) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not no_header:
        writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


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


def _parse_tuple(text: str) -> Tuple5:
    return Tuple5.parse(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_akj(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    if args.j < 0:
        raise ValueError(f"--j must be >= 0, got {args.j}")
    value = count_A(args.k, args.j)
    if args.format == "json":
        _emit_json({"k": args.k, "j": args.j, "value": str(value)})
    elif args.format == "csv":
        _emit_csv(["k", "j", "value"], [[args.k, args.j, str(value)]], args.no_header)
    else:
        print(value)
    return EXIT_OK


def _json_block(obj, indent: int) -> str:
    """``json.dumps(obj, indent=2)`` as it reads nested ``indent`` spaces deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + " " * indent)


def _json_rows(rows: list[str]) -> str:
    """Rendered rows as the list ``json.dumps(obj, indent=2)`` prints for a
    top-level key of ``obj``."""
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


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

_TUPLES_HEADER = ["r", "s", "t", "m", "n", "case"]


def _cmd_tuples(args) -> int:
    p = require_odd_prime(args.p)
    g = require_genus(args.genus)
    rows = [(*v, shape_case(v).value) for v in shape_tuples(p, g)]
    if args.format == "json":
        body = _json_rows([_TUPLES_JSON_ROW % row for row in rows])
        print('{\n  "p": %d,\n  "g": %d,\n  "rows": %s\n}' % (p, g, body))
    elif args.format == "csv":
        _emit_csv(_TUPLES_HEADER, rows, args.no_header)
    else:
        lines = _columns([[str(x) for x in row] for row in rows], _TUPLES_HEADER, args.no_header)
        lines.append(f"{len(rows)} admissible shape(s) for p={p} genus={g}")
        _emit_table(lines, "tuples", args.no_header)
    return EXIT_OK


def _census_json(report: CountReport) -> str:
    """The census as ``json.dumps(obj, indent=2)`` prints it, row by template."""
    flags_json = functools.cache(lambda flags: _json_block([_flag_json(f) for f in flags], 6))
    rows = [
        _CENSUS_JSON_ROW % (*v, case.value, count, flags_json(flags))
        for v, case, count, flags in zip(report.shapes, report.cases, report.counts, report.row_flags)
    ]
    parts = ['{\n  "p": %d,\n  "g": %d,\n  "rows": ' % (report.p, report.g)]
    parts.append(_json_rows(rows))
    parts.append(',\n  "total": "%d"' % report.total)
    if report.reference_total is not None:
        parts.append(',\n  "reference_total": "%d"' % report.reference_total)
    parts.append(',\n  "flags": ' + _json_block([_flag_json(f) for f in report.flags], 2) + "\n}")
    return "".join(parts)


def _census_cells(report: CountReport):
    """Per row: r, s, t, m, n, case, count and the flag cell."""
    flag_cell = functools.cache(_flag_cell)
    for v, case, count, flags in zip(report.shapes, report.cases, report.counts, report.row_flags):
        yield (*v, case.value, count, flag_cell(flags))


_CENSUS_HEADER = ["r", "s", "t", "m", "n", "case", "count", "flags"]


def _cmd_census(args) -> int:
    report = census(args.p, args.genus)
    if args.format == "json":
        print(_census_json(report))
    elif args.format == "csv":
        _emit_csv(_CENSUS_HEADER, _census_cells(report), args.no_header)
    else:
        lines = []
        if args.per_tuple:
            rows = [[str(x) for x in cells] for cells in _census_cells(report)]
            lines += _columns(rows, _CENSUS_HEADER, args.no_header)
        lines.append(f"total {report.total} ({len(report.shapes)} shapes)")
        if report.reference_total is not None:
            lines.append(f"published reference total {report.reference_total}")
        for flag in report.flags:
            lines.append(
                f"flag: {flag.location}: published={flag.paper_value} "
                f"computed={flag.computed_value}"
            )
        _emit_table(lines, "census", args.no_header)
    return EXIT_OK


def _cmd_canonical(args) -> int:
    p = require_odd_prime(args.p)
    v = _parse_tuple(args.tuple)
    try:
        states = enumerate_canonical(p, v, budget=args.max_states)
    except BudgetExceededError as exc:
        print(f"canonical enumeration incomplete: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    listed = []
    if args.list:
        template = state_template(v.as_tuple())
        listed = [template % flatten(s) for s in states]
    if args.format == "json":
        obj = {
            "p": p,
            "tuple": list(v.as_tuple()),
            "case": classify(v).value,
            "count": str(len(states)),
        }
        if args.list:
            obj["states"] = listed
        _emit_json(obj)
    elif args.format == "csv":
        if args.list:
            _emit_csv(["index", "state"], enumerate(listed), args.no_header)
        else:
            rows = [list(v.as_tuple()) + [classify(v).value, str(len(states))]]
            _emit_csv(["r", "s", "t", "m", "n", "case", "count"], rows, args.no_header)
    else:
        lines = [f"{len(states)} canonical state(s) for p={p} shape {v}"]
        if args.list:
            lines.append(f"p={p} v={','.join(str(x) for x in v.as_tuple())}")
            lines += listed
        _emit_table(lines, "canonical", args.no_header)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    p = require_odd_prime(args.p)
    v = _parse_tuple(args.tuple)
    try:
        stats = orbit_count(p, v, budget=args.max_states, workers=args.workers)
    except BudgetExceededError as exc:
        print(f"orbit count incomplete: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    if args.format == "json":
        _emit_json(
            {
                "p": p,
                "tuple": list(v.as_tuple()),
                "orbits": str(stats.orbits),
                "state_space_size": stats.state_space_size,
                "valid_states": stats.valid_states,
                "largest_orbit": stats.largest_orbit,
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["r", "s", "t", "m", "n", "orbits", "state_space_size", "valid_states", "largest_orbit"],
            [
                list(v.as_tuple())
                + [str(stats.orbits), stats.state_space_size, stats.valid_states, stats.largest_orbit]
            ],
            args.no_header,
        )
    else:
        _emit_table(
            [
                f"shape {v} at p={p}: {stats.orbits} orbit(s)",
                f"state space {stats.state_space_size} raw, "
                f"{stats.valid_states} valid, largest orbit {stats.largest_orbit}",
            ],
            "orbits",
            args.no_header,
        )
    return EXIT_OK


def _comparison_json(report) -> dict:
    def opt(x):
        return None if x is None else str(x)

    return {
        "tuple": list(report.tuple.as_tuple()),
        "case": report.case.value,
        "theorem_count": str(report.theorem_count),
        "canonical_count": opt(report.canonical_count),
        "orbit_count": opt(report.orbit_count),
        "state_space_size": report.state_space_size,
        "valid_states": report.valid_states,
        "largest_orbit": report.largest_orbit,
        "agreement": report.agreement,
        "complete": report.complete,
        "errors": report.errors,
    }


def _cmd_verify(args) -> int:
    p = require_odd_prime(args.p)
    if (args.tuple is None) == (args.genus is None):
        raise ValueError("verify needs exactly one of --tuple or --genus")
    if args.tuple is not None:
        shapes = [_parse_tuple(args.tuple)]
    else:
        shapes = admissible_tuples(p, require_genus(args.genus))
    reports = [
        compare(p, v, budget=args.max_states, workers=args.workers) for v in shapes
    ]
    incomplete = any(not r.complete for r in reports)

    if args.format == "json":
        obj: dict = {"p": p}
        if args.genus is not None:
            obj["g"] = args.genus
        else:
            obj["tuple"] = list(shapes[0].as_tuple())
        obj["rows"] = [_comparison_json(r) for r in reports]
        obj["incomplete"] = incomplete
        _emit_json(obj)
    elif args.format == "csv":
        header = [
            "r", "s", "t", "m", "n", "case", "theorem_count", "canonical_count",
            "orbit_count", "state_space_size", "valid_states", "largest_orbit",
            "agree_theorem_canonical", "agree_theorem_orbit", "agree_canonical_orbit",
            "complete",
        ]
        def cell(x):
            return "" if x is None else x
        rows = []
        for r in reports:
            ag = r.agreement
            rows.append(
                list(r.tuple.as_tuple())
                + [
                    r.case.value,
                    str(r.theorem_count),
                    cell(None if r.canonical_count is None else str(r.canonical_count)),
                    cell(None if r.orbit_count is None else str(r.orbit_count)),
                    r.state_space_size,
                    cell(r.valid_states),
                    cell(r.largest_orbit),
                    cell(ag["theorem_vs_canonical"]),
                    cell(ag["theorem_vs_orbit"]),
                    cell(ag["canonical_vs_orbit"]),
                    r.complete,
                ]
            )
        _emit_csv(header, rows, args.no_header)
    else:
        lines = []
        for r in reports:
            def show(x):
                return "?" if x is None else str(x)
            verdict = "agree" if all(v is True for v in r.agreement.values()) else "DIFFER"
            if not r.complete:
                verdict = "incomplete"
            lines.append(
                f"shape {r.tuple}: theorem {r.theorem_count}, canonical "
                f"{show(r.canonical_count)}, orbits {show(r.orbit_count)} [{verdict}]"
            )
            for err in r.errors:
                lines.append(f"  {err}")
        _emit_table(lines, "verify", args.no_header)
    return EXIT_INCOMPLETE if incomplete else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, fmt=True):
    if fmt:
        sub.add_argument(
            "--format", choices=["table", "json", "csv"], default="table",
            help="output format (default table)",
        )
    sub.add_argument(
        "--no-header", action="store_true",
        help="suppress the table timestamp line and the CSV header row",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="handlebody-census",
        description=(
            "Exact census of cyclic prime-squared symmetry classes of "
            "handlebodies, with brute-force verification oracles."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    akj = subparsers.add_parser("akj", help="closed-form nondecreasing-tuple count")
    akj.add_argument("--k", type=int, required=True, help="alphabet size, >= 1")
    akj.add_argument("--j", type=int, required=True, help="tuple length, >= 0")
    _add_common(akj)
    akj.set_defaults(func=_cmd_akj)

    tuples_cmd = subparsers.add_parser("tuples", help="admissible shapes for (p, genus)")
    tuples_cmd.add_argument("--p", type=int, required=True, help="odd prime")
    tuples_cmd.add_argument("--genus", type=int, required=True, help="genus, >= 1")
    _add_common(tuples_cmd)
    tuples_cmd.set_defaults(func=_cmd_tuples)

    census_cmd = subparsers.add_parser("census", help="class counts for (p, genus)")
    census_cmd.add_argument("--p", type=int, required=True, help="odd prime")
    census_cmd.add_argument("--genus", type=int, required=True, help="genus, >= 1")
    census_cmd.add_argument(
        "--per-tuple", action="store_true", help="show per-shape rows in table output"
    )
    _add_common(census_cmd)
    census_cmd.set_defaults(func=_cmd_census)

    canonical_cmd = subparsers.add_parser("canonical", help="normal-form states of one shape")
    canonical_cmd.add_argument("--p", type=int, required=True, help="odd prime")
    canonical_cmd.add_argument("--tuple", required=True, metavar="r,s,t,m,n")
    canonical_cmd.add_argument("--list", action="store_true", help="dump the states")
    canonical_cmd.add_argument(
        "--max-states", type=int, default=DEFAULT_STATE_BUDGET,
        help="state budget (default %(default)s)",
    )
    _add_common(canonical_cmd)
    canonical_cmd.set_defaults(func=_cmd_canonical)

    orbits_cmd = subparsers.add_parser("orbits", help="move-orbit count of one shape")
    orbits_cmd.add_argument("--p", type=int, required=True, help="odd prime")
    orbits_cmd.add_argument("--tuple", required=True, metavar="r,s,t,m,n")
    orbits_cmd.add_argument(
        "--max-states", type=int, default=DEFAULT_STATE_BUDGET,
        help="raw state budget (default %(default)s)",
    )
    orbits_cmd.add_argument("--workers", type=int, default=1, help="worker count")
    _add_common(orbits_cmd)
    orbits_cmd.set_defaults(func=_cmd_orbits)

    verify_cmd = subparsers.add_parser(
        "verify", help="compare formula, normal-form, and orbit counts"
    )
    verify_cmd.add_argument("--p", type=int, required=True, help="odd prime")
    verify_cmd.add_argument("--genus", type=int, help="verify every shape of this genus")
    verify_cmd.add_argument("--tuple", metavar="r,s,t,m,n", help="verify one shape")
    verify_cmd.add_argument(
        "--max-states", type=int, default=DEFAULT_STATE_BUDGET,
        help="raw state budget per shape (default %(default)s)",
    )
    verify_cmd.add_argument("--workers", type=int, default=1, help="worker count")
    _add_common(verify_cmd)
    verify_cmd.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InadmissibleTupleError) as exc:
        print(f"handlebody-census {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
