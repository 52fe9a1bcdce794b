"""Reference renderings of ``census`` and ``tuples`` output, built row by row.

These are the renderers the CLI used before it wrote rows through per-run
templates: one JSON object dumped with ``json.dumps(..., indent=2)``, CSV
rows through :mod:`csv`, and table rows through the column aligner the CLI
used to hold every row in (:func:`_columns`).  They read the census rows
from ``CountReport.iter_rows()`` and the shapes from ``admissible_tuples``.
The CLI must match them byte for byte.
"""

from __future__ import annotations

import csv
import io
import json

from handlebody_census.theorem_counts import CountReport
from handlebody_census.tuples import admissible_tuples, shape_case

HEADER = ["r", "s", "t", "m", "n", "case", "count", "flags"]
TUPLES_HEADER = ["r", "s", "t", "m", "n", "case"]


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


def census_json(report: CountReport) -> str:
    obj = {
        "p": report.p,
        "g": report.g,
        "rows": [
            {
                "tuple": [r, s, t, m, n],
                "case": case.value,
                "count": str(count),
                "flags": [_flag_json(f) for f in flags],
            }
            for r, s, t, m, n, case, count, flags in report.iter_rows()
        ],
        "total": str(report.total),
    }
    if report.reference_total is not None:
        obj["reference_total"] = str(report.reference_total)
    obj["flags"] = [_flag_json(f) for f in report.flags]
    return json.dumps(obj, indent=2) + "\n"


def census_csv(report: CountReport, no_header: bool) -> str:
    rows = [
        [r, s, t, m, n, case.value, str(count), _flag_cell(flags)]
        for r, s, t, m, n, case, count, flags in report.iter_rows()
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not no_header:
        writer.writerow(HEADER)
    writer.writerows(rows)
    return buf.getvalue()


def census_table(report: CountReport, per_tuple: bool, no_header: bool) -> str:
    """Table output without its timestamp line."""
    lines = []
    rows = [
        [*map(str, (r, s, t, m, n)), case.value, str(count), _flag_cell(flags)]
        for r, s, t, m, n, case, count, flags in report.iter_rows()
    ]
    if per_tuple:
        lines += _columns(rows, HEADER, no_header)
    lines.append(f"total {report.total} ({len(rows)} shapes)")
    if report.reference_total is not None:
        lines.append(f"published reference total {report.reference_total}")
    for flag in report.flags:
        lines.append(
            f"flag: {flag.location}: published={flag.paper_value} "
            f"computed={flag.computed_value}"
        )
    return "".join(line + "\n" for line in lines)


def tuples_json(p: int, g: int) -> str:
    rows = [{"tuple": list(v), "case": shape_case(v).value} for v in admissible_tuples(p, g)]
    return json.dumps({"p": p, "g": g, "rows": rows}, indent=2) + "\n"


def tuples_csv(p: int, g: int, no_header: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if not no_header:
        writer.writerow(TUPLES_HEADER)
    writer.writerows([*v, shape_case(v).value] for v in admissible_tuples(p, g))
    return buf.getvalue()


def tuples_table(p: int, g: int, no_header: bool) -> str:
    """Table output without its timestamp line."""
    shapes = admissible_tuples(p, g)
    rows = [[str(x) for x in v] + [shape_case(v).value] for v in shapes]
    lines = _columns(rows, TUPLES_HEADER, no_header)
    lines.append(f"{len(shapes)} admissible shape(s) for p={p} genus={g}")
    return "".join(line + "\n" for line in lines)
