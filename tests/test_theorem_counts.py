"""Per-shape counts, the census, and discrepancy flagging."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from handlebody_census.counting import count_A
from handlebody_census.theorem_counts import (
    census,
    count_case_m,
    count_case_r,
    count_case_st,
    count_for_tuple,
    count_kernel,
    order_p_pool,
    pinned_pair_pool,
    pools,
    unit_pool,
)
from handlebody_census.tuples import CaseTag, Tuple5, classify
from handlebody_census.verification import low_order_p_values, low_unit_values


def test_pools():
    assert unit_pool(3) == 3 and unit_pool(5) == 10 and unit_pool(7) == 21
    assert order_p_pool(3) == 1 and order_p_pool(5) == 2 and order_p_pool(7) == 3
    assert pinned_pair_pool(3) == 2 and pinned_pair_pool(5) == 8


def test_pools_are_the_sizes_of_the_normal_form_pools():
    for p in (3, 5, 7, 11, 13, 101):
        units, orderp = low_unit_values(p), low_order_p_values(p)
        assert pools(p) == (len(units), len(orderp), len(orderp) * (p - 1))
        assert pools(p) == (unit_pool(p), order_p_pool(p), pinned_pair_pool(p))


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


def test_census_columns_agree_with_the_kernel_and_classify():
    for p, g in [(3, 28), (5, 26), (7, 50)]:
        report = census(p, g)
        for v, case, count in zip(report.shapes, report.cases, report.counts):
            assert count_kernel(pools(p), *v) == (case, count)
            assert count_for_tuple(p, Tuple5(*v)) == count
            assert classify(Tuple5(*v)) is case


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (5, (0, 2, 0, 0, 0), 55),
        (5, (0, 1, 0, 1, 0), 100),
        (3, (0, 1, 1, 0, 0), 9),
    ],
)
def test_case_st_examples(p, v, expected):
    assert count_case_st(p, Tuple5(*v)) == expected


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (5, (2, 0, 0, 0, 0), 10),
        (5, (1, 0, 0, 1, 0), 28),  # published value is 18; formula says 28
        (3, (1, 0, 0, 0, 0), 3),
    ],
)
def test_case_r_examples(p, v, expected):
    assert count_case_r(p, Tuple5(*v)) == expected


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (3, (0, 0, 0, 1, 0), 2),
        (5, (0, 0, 0, 2, 0), 80),  # published value is 55; formula says 80
        (3, (0, 0, 0, 1, 1), 2),
    ],
)
def test_case_m_examples(p, v, expected):
    assert count_case_m(p, Tuple5(*v)) == expected


def test_m_zero_keeps_only_the_handle_branch():
    # with no pairs, the pinned-pair branch is empty by definition
    assert count_case_r(3, Tuple5(2, 0, 0, 0, 0)) == unit_pool(3)
    assert count_case_r(5, Tuple5(2, 0, 0, 0, 0)) == unit_pool(5)


def test_wrong_case_is_a_contract_violation():
    with pytest.raises(ValueError):
        count_case_st(3, Tuple5(2, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        count_case_r(3, Tuple5(0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        count_case_m(3, Tuple5(1, 0, 0, 1, 0))


def test_census_worked_example_with_flags():
    report = census(5, 26)
    by_tuple = {row.tuple.as_tuple(): row for row in report.rows}
    assert {t: r.count for t, r in by_tuple.items()} == {
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
    assert by_tuple[(0, 0, 0, 2, 0)].flags[0].paper_value == 55
    assert by_tuple[(1, 0, 0, 1, 0)].flags[0].paper_value == 18
    assert by_tuple[(0, 2, 0, 0, 0)].flags == []


def test_census_empty():
    report = census(3, 2)
    assert report.rows == []
    assert report.total == 0
    assert report.reference_total is None
    assert report.flags == []


def test_census_small_prime():
    report = census(3, 10)
    assert {row.tuple.as_tuple(): row.count for row in report.rows} == {
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
        shapes = [row.tuple for row in report.rows]
        assert shapes == sorted(shapes)
        assert report.total == sum(row.count for row in report.rows)


def test_dispatch_totality():
    for p, g in [(3, 10), (3, 28), (5, 26), (5, 50)]:
        report = census(p, g)
        for row in report.rows:
            case = classify(row.tuple)
            fn = {
                CaseTag.CASE_ST: count_case_st,
                CaseTag.CASE_R: count_case_r,
                CaseTag.CASE_M: count_case_m,
            }[case]
            assert row.case is case
            assert fn(p, row.tuple) == row.count == count_for_tuple(p, row.tuple)


def test_counts_are_positive():
    for p, g in [(3, 10), (3, 28), (5, 26), (5, 51)]:
        for row in census(p, g).rows:
            assert row.count >= 1


def test_st_counts_scale_exactly_with_n():
    # incrementing n multiplies a shape's count by A(pool, n+1) / A(pool, n),
    # checked by exact cross-multiplication
    for p in (3, 5):
        kn = order_p_pool(p)
        for comps in [(0, 1, 0, 0, 0), (0, 1, 1, 1, 0), (1, 2, 0, 0, 2), (0, 0, 2, 1, 1)]:
            v = Tuple5(*comps)
            up = Tuple5(v.r, v.s, v.t, v.m, v.n + 1)
            lhs = count_case_st(p, up) * count_A(kn, v.n)
            rhs = count_case_st(p, v) * count_A(kn, v.n + 1)
            assert lhs == rhs, (p, comps)


def test_formula_evaluation_is_deterministic():
    v = Tuple5(1, 2, 0, 1, 3)
    assert count_case_st(5, v) == count_case_st(5, v) == count_for_tuple(5, v)
