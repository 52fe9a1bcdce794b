"""Per-shape counts, the census, and discrepancy flagging."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import listed_census

from handlebody_census import cli
from handlebody_census.counting import count_A, count_A_list
from handlebody_census.theorem_counts import (
    CountReport,
    census,
    count_for_tuple,
    count_kernel,
    factor_lists,
    m_factor,
    pools,
)
from handlebody_census.tuples import CaseTag, Tuple5, admissible_tuples, genus_of, shape_case
from handlebody_census.verification.canonical import low_order_p_values, low_unit_values


def kernel(p, v):
    """The case tag and count of a shape given as a plain tuple."""
    return count_kernel(pools(p), *v)


def test_pools():
    # (unit, order-p, pinned-pair) pool sizes
    assert pools(3) == (3, 1, 2) and pools(5) == (10, 2, 8) and pools(7) == (21, 3, 18)


def test_pools_are_the_sizes_of_the_normal_form_pools():
    for p in (3, 5, 7, 11, 13, 101):
        units, orderp = low_unit_values(p), low_order_p_values(p)
        assert pools(p) == (len(units), len(orderp), len(orderp) * (p - 1))


def test_pools_reject_a_bad_prime_under_python_O():
    child = (
        "from handlebody_census.theorem_counts import pools\n"
        "for p in (2, 4, 9, 15):\n"
        "    try:\n"
        "        pools(p)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'pools({p}) was accepted')\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_census_rows_agree_with_the_kernel_and_shape_case():
    for p, g in [(3, 28), (5, 26), (7, 50)]:
        report = census(p, g)
        for *v, case, count, _ in report.iter_rows():
            assert count_kernel(pools(p), *v) == (case, count)
            assert count_for_tuple(p, Tuple5(*v)) == count
            assert shape_case(Tuple5(*v)) is case


def test_count_A_list_steps_exactly_to_every_binomial():
    for k in (1, 2, 3, 10, 21, 5050):
        assert count_A_list(k, 60) == [count_A(k, j) for j in range(61)], k
    assert count_A_list(4, 0) == [1]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_lists_are_count_A_and_m_factor(p):
    pool_sizes = pools(p)
    k, kn, _ = pool_sizes
    q = p * p
    for g in (1, 2, 26, q + 1, 500, 2001):
        top = g - 1 + q
        A_k, A_kn, by_m = factor_lists(p, g)
        assert A_k == [count_A(k, j) for j in range(top // (q - 1) + 1)], (p, g)
        assert A_kn == [count_A(kn, j) for j in range(top // (q - p) + 1)], (p, g)
        for case in CaseTag:
            assert by_m[case] == [m_factor(pool_sizes, case, m) for m in range(top // q + 1)], (p, g, case)


def test_the_first_row_at_a_large_prime_and_genus_takes_no_binomial(monkeypatch):
    # At p=101, g=10^8 the factor lists run to about 10^4 entries of
    # thousands of digits: one binomial each took 11 s, one step each
    # (count_A_list) a fraction of a second.  No binomial is computed up to
    # the first table.  The closed forms of census() take seconds of their
    # own here and are read only after the last row, so the report is
    # built without them and the stream is closed after its first table.
    report = CountReport(p=101, g=10**8, total=0, shape_count=0)
    with monkeypatch.context() as patch:
        patch.setattr(math, "comb", lambda *args: pytest.fail(f"math.comb{args} computed"))
        tables = report.iter_tables()
        r, s, runs, counts, flags = next(tables)
        tables.close()
    t, ms, ns, case = runs[0]
    first = (r, s, t, ms[0], ns[0])
    assert first[:3] == (0, 0, 0) and case is CaseTag.CASE_M and flags is None
    assert genus_of(101, first) == 10**8
    assert counts[0] == count_kernel(pools(101), *first)[1]


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (5, (0, 2, 0, 0, 0), 55),
        (5, (0, 1, 0, 1, 0), 100),
        (3, (0, 1, 1, 0, 0), 9),
    ],
)
def test_case_st_examples(p, v, expected):
    assert kernel(p, v) == (CaseTag.CASE_ST, expected)


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (5, (2, 0, 0, 0, 0), 10),
        (5, (1, 0, 0, 1, 0), 28),  # published value is 18; formula says 28
        (3, (1, 0, 0, 0, 0), 3),
    ],
)
def test_case_r_examples(p, v, expected):
    assert kernel(p, v) == (CaseTag.CASE_R, expected)


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (3, (0, 0, 0, 1, 0), 2),
        (5, (0, 0, 0, 2, 0), 80),  # published value is 55; formula says 80
        (3, (0, 0, 0, 1, 1), 2),
    ],
)
def test_case_m_examples(p, v, expected):
    assert kernel(p, v) == (CaseTag.CASE_M, expected)


def test_m_zero_keeps_only_the_handle_branch():
    # with no pairs, the pinned-pair branch is empty by definition
    assert kernel(3, (2, 0, 0, 0, 0)) == (CaseTag.CASE_R, pools(3)[0])
    assert kernel(5, (2, 0, 0, 0, 0)) == (CaseTag.CASE_R, pools(5)[0])


def test_kernel_tags_each_shape_with_its_own_case():
    assert kernel(3, (2, 0, 0, 0, 0))[0] is CaseTag.CASE_R
    assert kernel(3, (0, 1, 0, 0, 0))[0] is CaseTag.CASE_ST
    assert kernel(3, (1, 0, 0, 1, 0))[0] is CaseTag.CASE_R
    assert kernel(3, (0, 0, 0, 1, 0))[0] is CaseTag.CASE_M


def test_census_worked_example_with_flags():
    report = census(5, 26)
    by_tuple = {row[:5]: row for row in report.iter_rows()}
    assert {v: row[6] for v, row in by_tuple.items()} == {
        (0, 2, 0, 0, 0): 55,
        (2, 0, 0, 0, 0): 10,
        (0, 0, 0, 2, 0): 80,
        (1, 1, 0, 0, 0): 10,
        (1, 0, 0, 1, 0): 28,
        (0, 1, 0, 1, 0): 100,
    }
    assert report.total == 283
    assert report.reference_total == 248
    flags = report.flags
    assert len(flags) == 2
    flagged = {
        (f.paper_value, f.computed_value) for f in flags
    }
    assert flagged == {(55, 80), (18, 28)}
    assert by_tuple[(0, 0, 0, 2, 0)][7][0].paper_value == 55
    assert by_tuple[(1, 0, 0, 1, 0)][7][0].paper_value == 18
    assert by_tuple[(0, 2, 0, 0, 0)][7] == ()


def test_census_empty():
    report = census(3, 2)
    assert list(report.iter_rows()) == []
    assert report.total == 0
    assert report.reference_total is None
    assert report.flags == []


def test_census_small_prime():
    report = census(3, 10)
    assert {row[:5]: row[6] for row in report.iter_rows()} == {
        (0, 0, 0, 2, 0): 6,
        (0, 1, 0, 1, 0): 9,
        (0, 2, 0, 0, 0): 6,
        (1, 0, 0, 1, 0): 5,
        (1, 1, 0, 0, 0): 3,
        (2, 0, 0, 0, 0): 3,
    }
    assert report.total == 32
    assert report.flags == []
    assert report.reference_total is None


def test_census_rows_sorted_and_resummed():
    for p, g in [(3, 10), (3, 19), (5, 26), (5, 51), (7, 50)]:
        report = census(p, g)
        rows = list(report.iter_rows())
        shapes = [row[:5] for row in rows]
        assert shapes == sorted(shapes)
        assert report.total == sum(row[6] for row in rows)


def test_dispatch_totality():
    for p, g in [(3, 10), (3, 28), (5, 26), (5, 50)]:
        report = census(p, g)
        for *v, case, count, _ in report.iter_rows():
            assert shape_case(v) is case
            assert kernel(p, v) == (case, count)
            assert count == count_for_tuple(p, Tuple5(*v))


def test_counts_are_positive():
    for p, g in [(3, 10), (3, 28), (5, 26), (5, 51)]:
        for row in census(p, g).iter_rows():
            assert row[6] >= 1


def test_st_counts_scale_exactly_with_n():
    # incrementing n multiplies a shape's count by A(pool, n+1) / A(pool, n),
    # checked by exact cross-multiplication
    for p in (3, 5):
        kn = pools(p)[1]
        for v in [(0, 1, 0, 0, 0), (0, 1, 1, 1, 0), (1, 2, 0, 0, 2), (0, 0, 2, 1, 1)]:
            up = v[:4] + (v[4] + 1,)
            (case, count), (up_case, up_count) = kernel(p, v), kernel(p, up)
            assert case is up_case is CaseTag.CASE_ST
            assert up_count * count_A(kn, v[4]) == count * count_A(kn, v[4] + 1), (p, v)


def test_formula_evaluation_is_deterministic():
    v = Tuple5(1, 2, 0, 1, 3)
    assert kernel(5, v) == kernel(5, v) == (CaseTag.CASE_ST, count_for_tuple(5, v))


# The streamed census against the listed one: every (p, g) of each group.
ORACLE_SWEEP = {
    "p3-g-below-200": [(3, g) for g in range(1, 200)],
    "p5-g-below-400": [(5, g) for g in range(1, 400)],
    "p7-g-below-500": [(7, g) for g in range(1, 500)],
    "benchmark-pairs": [(3, 492), (5, 2000), (5, 26)],
}


@pytest.mark.parametrize("pairs", ORACLE_SWEEP.values(), ids=ORACLE_SWEEP.keys())
def test_streamed_census_matches_the_listed_census(pairs):
    for p, g in pairs:
        want = listed_census(p, g)
        report = census(p, g)
        rows = list(report.iter_rows())
        assert [row[:7] for row in rows] == want, (p, g)
        assert report.shape_count == len(want), (p, g)
        assert report.total == sum(row[6] for row in want), (p, g)
        assert admissible_tuples(p, g) == [row[:5] for row in want], (p, g)
        flagged = {row[:5]: row[7] for row in rows if row[7]}
        assert flagged == report.shape_flags, (p, g)


@pytest.mark.parametrize("group", ["benchmark-pairs", "p3-g-below-200"])
def test_runs_flatten_to_the_rows_and_the_listed_census(group):
    for p, g in ORACLE_SWEEP[group]:
        report = census(p, g)
        tables = list(report.iter_tables())
        flat = []
        for r, s, runs, counts, flags in tables:
            shapes = [(r, s, t, m, n) for t, ms, ns, _ in runs for m, n in zip(ms, ns)]
            cases = [case for _, ms, _, case in runs for _ in ms]
            assert len(shapes) == len(counts) == len(flags or shapes), (p, g)
            assert all(len(ms) == len(ns) > 0 for _, ms, ns, _ in runs), (p, g)
            # one run per (r, s, t)
            assert len({t for t, *_ in runs}) == len(runs), (p, g)
            for i, (v, case, count) in enumerate(zip(shapes, cases, counts)):
                # each row is in its run's case
                assert case is shape_case(v), (p, g, v)
                flat.append((*v, case, count, flags[i] if flags else ()))
        # one table per (r, s)
        assert len({table[:2] for table in tables}) == len(tables), (p, g)
        assert flat == list(report.iter_rows()), (p, g)
        assert [row[:7] for row in flat] == listed_census(p, g), (p, g)


@pytest.mark.parametrize("p,g", [(3, 150), (5, 300)])
def test_counts_yielded_are_not_handed_out_again(p, g):
    # Runs with the same (ms, ns) share one list of by_m[m] A(kn,n), and
    # tables with the same r+s share their list of those; each table must
    # still get a counts list of its own, so writing into every yielded list
    # changes no table read later.
    rows, seen, shared = [], set(), 0
    for r, s, runs, counts, _ in census(p, g).iter_tables():
        shapes = [(r, s, t, m, n) for t, ms, ns, _ in runs for m, n in zip(ms, ns)]
        rows += [(*v, shape_case(v), count) for v, count in zip(shapes, counts)]
        for _, ms, ns, _ in runs:
            shared += (ms, ns) in seen
            seen.add((ms, ns))
        counts[:] = [-1] * len(counts)
    assert rows == listed_census(p, g)
    assert shared > 0


_LARGEST_PAIRS = [(3, 2), (3, 43), (3, 150), (5, 26), (5, 300), (7, 400), (11, 1000)]
# Both are closed forms over the (t, n) blocks, so every genus up to 300 at
# five primes, after the pairs above.
_BLOCK_SWEEP = [(p, g) for p in (3, 5, 7, 11, 13) for g in range(1, 301) if (p, g) not in _LARGEST_PAIRS]


@pytest.mark.parametrize("p,g", _LARGEST_PAIRS + _BLOCK_SWEEP)
def test_largest_count_is_the_largest_count_the_tables_yield(p, g):
    # the --per-tuple table's count column is as wide as this value, and its
    # other columns as cli._widths says: as the widest cells of the walk
    report = census(p, g)
    largest, top, cases = 0, [0] * 5, set()
    for r, s, runs, counts, _ in report.iter_tables():
        largest = max(largest, max(counts, default=0))
        for t, ms, ns, case in runs:  # m rises and n falls along a run
            top = list(map(max, top, (r, s, t, ms[-1], ns[0])))
            cases.add(case.value)
    assert cli._widths(p, g) == [len(str(x)) for x in top] + [max(map(len, cases), default=0)]
    assert report.largest_count() == largest


def test_rows_that_disagree_with_the_closed_form_raise_at_the_end():
    report = census(5, 26)
    tables = len(list(report.iter_tables()))
    for wrong in (
        dataclasses.replace(report, total=report.total + 1),
        dataclasses.replace(report, shape_count=report.shape_count - 1),
    ):
        rows = wrong.iter_rows()
        assert len([next(rows) for _ in range(report.shape_count)]) == 6
        with pytest.raises(AssertionError, match="the rows give 6 shapes and total 283"):
            next(rows)
        table_iter = wrong.iter_tables()
        assert sum(len(next(table_iter)[3]) for _ in range(tables)) == 6
        with pytest.raises(AssertionError, match="the rows give 6 shapes and total 283"):
            next(table_iter)


def test_the_cli_raises_when_its_rows_disagree_with_the_closed_form(monkeypatch):
    report = census(5, 26)
    monkeypatch.setattr(cli, "census", lambda p, g: dataclasses.replace(report, total=report.total + 1))
    for fmt in ("json", "csv", "table"):
        with pytest.raises(AssertionError, match="the rows give 6 shapes and total 283"):
            cli.main(["census", "--p", "5", "--genus", "26", "--per-tuple", "--format", fmt])


def test_runs_that_disagree_with_the_closed_form_raise_under_python_O():
    child = (
        "import dataclasses\n"
        "from handlebody_census.theorem_counts import census\n"
        "report = census(5, 26)\n"
        "wrong = dataclasses.replace(report, total=report.total + 1)\n"
        "for stream in ('iter_rows', 'iter_tables'):\n"
        "    records = list(getattr(report, stream)())\n"
        "    record_iter = getattr(wrong, stream)()\n"
        "    read = [next(record_iter) for _ in records]\n"
        "    try:\n"
        "        next(record_iter)\n"
        "    except AssertionError as exc:\n"
        "        if 'the rows give 6 shapes and total 283' not in str(exc):\n"
        "            raise SystemExit(str(exc))\n"
        "    else:\n"
        "        raise SystemExit(f'{stream} ended with no error')\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
