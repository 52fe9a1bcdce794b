"""Shape enumeration, genus bookkeeping, case dispatch, and the shape type."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import listed_shapes, reference_genus_blocks

from handlebody_census import tuples
from handlebody_census.errors import InadmissibleTupleError
from handlebody_census.tuples import (
    CaseTag,
    Tuple5,
    admissible_tuples,
    genus_of,
    require_odd_prime,
    shape_case,
)


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (5, (0, 2, 0, 0, 0), 26),
        (5, (1, 0, 0, 0, 0), 1),
        (3, (0, 1, 1, 0, 0), 9),
    ],
)
def test_genus_examples(p, v, expected):
    assert genus_of(p, Tuple5(*v)) == expected


def test_genus_inadmissible_names_the_tuple():
    with pytest.raises(InadmissibleTupleError, match=r"\(0,0,1,0,0\)"):
        genus_of(3, Tuple5(0, 0, 1, 0, 0))


def test_admissible_tuples_worked_example():
    assert admissible_tuples(5, 26) == [
        (0, 0, 0, 2, 0),
        (0, 1, 0, 1, 0),
        (0, 2, 0, 0, 0),
        (1, 0, 0, 1, 0),
        (1, 1, 0, 0, 0),
        (2, 0, 0, 0, 0),
    ]


def test_admissible_tuples_empty():
    assert admissible_tuples(3, 2) == []


def test_admissible_tuples_small_genus():
    assert admissible_tuples(3, 9) == [
        (0, 0, 1, 1, 0),
        (0, 1, 1, 0, 0),
        (1, 0, 1, 0, 0),
    ]


@pytest.mark.parametrize(
    "v,expected",
    [
        ((0, 1, 0, 1, 0), CaseTag.CASE_ST),
        ((2, 0, 0, 0, 0), CaseTag.CASE_R),
        ((0, 0, 0, 2, 0), CaseTag.CASE_M),
    ],
)
def test_shape_case_examples(v, expected):
    assert shape_case(Tuple5(*v)) is expected
    assert shape_case(v) is expected


def test_round_trip_small_components():
    for p in (3, 5, 7):
        cache = {}
        for r in range(5):
            for s in range(5):
                for t in range(5):
                    for m in range(5):
                        for n in range(5):
                            if r + s + t + m == 0:
                                continue
                            v = Tuple5(r, s, t, m, n)
                            try:
                                g = genus_of(p, v)
                            except InadmissibleTupleError:
                                continue
                            if g not in cache:
                                cache[g] = admissible_tuples(p, g)
                            assert v in cache[g], (p, v, g)


def _scan_box(p, g):
    """Exhaustive scan of all shapes with components <= g.

    The genus formula increases strictly in every component, so once a
    prefix already overshoots g the rest of that loop cannot produce a
    solution and is skipped; nothing inside the box escapes the scan.
    """
    q = p * p
    bound = g + 1

    def base(r, s, t, m, n):
        return 1 + q * (r + s + m - 1) + (q - 1) * t + (q - p) * n

    found = []
    for r in range(bound):
        if base(r, 0, 0, 0, 0) > g:
            break
        for s in range(bound):
            if base(r, s, 0, 0, 0) > g:
                break
            for t in range(bound):
                if base(r, s, t, 0, 0) > g:
                    break
                for m in range(bound):
                    if base(r, s, t, m, 0) > g:
                        break
                    for n in range(bound):
                        value = base(r, s, t, m, n)
                        if value > g:
                            break
                        if value == g and r + s + t + m > 0:
                            found.append((r, s, t, m, n))
    return sorted(found)


def test_completeness_against_box_scan():
    for p in (3, 5):
        for g in range(1, 61):
            got = admissible_tuples(p, g)
            assert got == _scan_box(p, g), (p, g)


def test_genus_blocks_are_the_reference_blocks_and_the_listed_shapes_blocks():
    for p in (3, 5, 7, 11):
        for g in range(1, 1201):
            assert sorted(tuples.genus_blocks(p, g)) == sorted(reference_genus_blocks(p, g)), (p, g)
    for p in (3, 5, 7):
        for g in range(1, 301):
            listed = {(t, n, r + s + m) for r, s, t, m, n in listed_shapes(p, g)}
            assert sorted(tuples.genus_blocks(p, g)) == sorted(listed), (p, g)


def test_a_walk_that_disagrees_with_the_closed_form_raises_at_the_end(monkeypatch):
    count = len(list(tuples.shape_tables(5, 26)))
    monkeypatch.setattr(tuples, "shape_count", lambda p, g: 5)
    tables = tuples.shape_tables(5, 26)
    read = [next(tables) for _ in range(count)]
    assert sum(len(ms) for _, _, runs in read for _, ms, _, _ in runs) == 6
    with pytest.raises(AssertionError, match="the walk gave 6 shapes, the closed form 5"):
        next(tables)
    with pytest.raises(AssertionError, match="the walk gave 6 shapes, the closed form 5"):
        admissible_tuples(5, 26)


def test_the_walk_reaches_its_first_run_lazily():
    # At p=101, g=10^8 the runs with r = 0 number about 5*10^5; building the
    # table of every r+s before the first run would take seconds and over
    # 100 MiB, one table takes a few entries.
    tracemalloc.start()
    try:
        first = next(tuples.shape_tables(101, 10**8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first[:2] == (0, 0)
    assert peak < 1 << 20


def test_the_walk_gives_each_run_the_case_of_its_rows():
    # the rows with s = t = 0 come first in their table, and they alone are
    # not in case st
    for p in (3, 5, 7):
        for g in range(1, 301):
            for r, s, runs in tuples.shape_tables(p, g):
                rows = [(r, s, t, m, n, case) for t, ms, ns, case in runs for m, n in zip(ms, ns)]
                assert all(shape_case(row[:5]) is row[5] for row in rows), (p, g, r, s)
                heads = [row for row in rows if row[1] == row[2] == 0]
                assert rows[: len(heads)] == heads, (p, g, r, s)
                assert {row[5] for row in heads} <= {CaseTag.CASE_R if r else CaseTag.CASE_M}


@pytest.mark.parametrize("p,g", [(3, 43), (5, 300)])
def test_per_table_builds_once_per_list_of_runs(p, g):
    built = []

    def build(runs):
        built.append(runs)
        return object()

    # extra fields after (r, s, runs) pass through untouched
    tables = [(r, s, runs, r * s) for r, s, runs in tuples.shape_tables(p, g)]
    pairs = tuples.per_table(tables, build)
    first = next(pairs)
    # the first pair comes before any later table is built
    assert first[0] is tables[0] and tables[0][:2] == (0, 0)
    assert built == [tables[0][2]]
    pairs = [first, *pairs]
    assert [table for table, _ in pairs] == tables
    # one call per distinct list, the first time a table holds it
    firsts = {}
    for r, s, runs, _ in tables:
        firsts.setdefault(id(runs), runs)
    assert built == list(firsts.values()) and len(set(map(id, built))) == len(built)
    # at most two lists per value of r+s: one shared by its tables with
    # s > 0, and the (r+s, 0) table's
    sums = [r + s for r, s, _, _ in tables]
    lists = {}
    for r, s, runs, _ in tables:
        lists.setdefault(r + s, {})[id(runs)] = s > 0
    assert sorted(lists) == list(range(max(sums) + 1))
    assert all(len(ids) <= 2 and sum(ids.values()) <= 1 for ids in lists.values())
    # every table with the same list gets the identical object
    by_list = {}
    for (_, _, runs, _), value in pairs:
        assert by_list.setdefault(id(runs), value) is value
    assert len(set(map(id, by_list.values()))) == len(by_list) == len(built)


def test_tuple5_rejects_bad_components():
    with pytest.raises(ValueError):
        Tuple5(-1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        Tuple5(0, 0, 0, 0, 3)  # no finite-order or handle factor at all
    with pytest.raises(ValueError):
        Tuple5(0, 0, 0, 0, 0)
    # no state, normal form or row holds more than sys.maxsize images of one class
    with pytest.raises(ValueError, match="at most sys.maxsize"):
        Tuple5(sys.maxsize + 1, 0, 0, 0, 0)
    assert Tuple5(sys.maxsize, 0, 0, 0, 0) == (sys.maxsize, 0, 0, 0, 0)


def test_tuple5_rejects_bad_components_on_every_route():
    v = Tuple5(1, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        Tuple5(True, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        Tuple5._make([0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        v._replace(r=-1)
    with pytest.raises(ValueError):
        v._replace(r=0, m=0)
    assert Tuple5._make([1, 0, 0, 1, 0]) == v
    assert v._replace(n=2) == Tuple5(1, 0, 0, 1, 2)
    assert type(v._replace(n=2)) is Tuple5


def test_tuple5_checks_survive_python_O():
    child = (
        "from handlebody_census.tuples import Tuple5\n"
        "v = Tuple5(1, 0, 0, 1, 0)\n"
        "for build in (lambda: Tuple5(0, 0, 0, 0, 1), lambda: Tuple5(True, 0, 0, 1, 0),\n"
        "              lambda: Tuple5._make([0, 0, 0, 0, 0]), lambda: v._replace(r=-1)):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('a bad shape was accepted')\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", child], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_tuple5_is_its_plain_tuple():
    v, plain = Tuple5(1, 0, 0, 1, 0), (1, 0, 0, 1, 0)
    assert v == plain and plain == v and isinstance(v, tuple)
    assert hash(v) == hash(plain)
    assert {v: "x"}[plain] == "x" and {plain: "x"}[v] == "x"
    assert sorted([Tuple5(0, 2, 0, 0, 0), (0, 0, 0, 2, 0), Tuple5(1, 0, 0, 0, 0)]) == [
        (0, 0, 0, 2, 0),
        (0, 2, 0, 0, 0),
        (1, 0, 0, 0, 0),
    ]
    assert (v.r, v.s, v.t, v.m, v.n) == plain
    assert str(v) == "(1,0,0,1,0)"
    assert repr(v) == "Tuple5(r=1, s=0, t=0, m=1, n=0)"
    assert json.dumps(v) == json.dumps(plain) == "[1, 0, 0, 1, 0]"


def test_tuple5_parse_and_str():
    v = Tuple5.parse("1,0,0,1,0")
    assert v == Tuple5(1, 0, 0, 1, 0)
    assert str(v) == "(1,0,0,1,0)"
    with pytest.raises(ValueError):
        Tuple5.parse("1,2,3")
    with pytest.raises(ValueError):
        Tuple5.parse("1,2,x,0,0")
    with pytest.raises(ValueError):
        Tuple5.parse("0,0,0,0,2")


def test_tuple5_orders_lexicographically():
    shapes = [Tuple5(1, 0, 0, 1, 0), Tuple5(0, 2, 0, 0, 0), Tuple5(0, 0, 0, 2, 0)]
    assert sorted(shapes) == [
        Tuple5(0, 0, 0, 2, 0),
        Tuple5(0, 2, 0, 0, 0),
        Tuple5(1, 0, 0, 1, 0),
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_odd_primes_accepted(p):
    assert require_odd_prime(p) == p


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15, 21, -3, 0])
def test_non_odd_primes_rejected(p):
    with pytest.raises(ValueError):
        require_odd_prime(p)


@pytest.mark.parametrize(
    "p,message",
    [
        (3.0, "p must be an integer, got 3.0"),
        (True, "p must be an integer, got True"),
        (1, "p must be an odd prime >= 3, got 1"),
        (4, "p must be an odd prime >= 3, got 4"),
        (9, "p must be prime, got 9 = 3 * 3"),
        (21, "p must be prime, got 21 = 3 * 7"),
        (65521**2, "p must be prime, got 4293001441 = 65521 * 65521"),  # the largest square below 2^32
        # composites past 2^32 without a factor below 2^16 are named alone
        (65537**2, "p must be prime, got 4295098369"),
        (2**67 - 1, "p must be prime, got 147573952589676412927"),  # 193707721 * 761838257287
        (3825123056546413051, "p must be prime, got 3825123056546413051"),  # strong pseudoprime to bases 2-23
        # a strong pseudoprime to bases 2-37 that only base 41 exposes
        (318665857834031151167461, "p must be prime, got 318665857834031151167461"),
    ],
)
def test_a_rejected_p_says_why(p, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_odd_prime(p)


@pytest.mark.parametrize("p", [10000000000000061, 2**61 - 1])
def test_large_primes_accepted_quickly(p):
    # trial division to sqrt(p) took seconds at 10^16; past 2^32 a
    # strong-probable-prime test decides
    start = time.perf_counter()
    assert require_odd_prime(p) == p
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p", [2**89 - 1, 3317044064679887385961981])
def test_a_p_past_the_exact_bound_is_refused_quickly(p):
    # at or past the bound no strong-probable-prime test to the 13 bases is
    # exact; trial division to sqrt(p) would run for hours
    message = f"p must be below 3317044064679887385961981, where the primality test stops being exact, got {p}"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_odd_prime(p)
    assert time.perf_counter() - start < 0.1


def test_a_small_factor_is_named_past_the_exact_bound():
    q = 2**89 - 1
    with pytest.raises(ValueError, match=f"^{re.escape(f'p must be prime, got {3 * q} = 3 * {q}')}$"):
        require_odd_prime(3 * q)


@settings(deadline=None, max_examples=150)
@given(
    comps=st.tuples(*[st.integers(0, 4)] * 5).filter(lambda c: sum(c[:4]) > 0),
    p=st.sampled_from([3, 5, 7]),
)
def test_shape_case_is_total_and_single_valued(comps, p):
    v = Tuple5(*comps)
    tag = shape_case(v)
    predicates = [v.s + v.t > 0, v.s + v.t == 0 and v.r > 0, v.r + v.s + v.t == 0 and v.m > 0]
    assert predicates.count(True) == 1
    assert tag is [CaseTag.CASE_ST, CaseTag.CASE_R, CaseTag.CASE_M][predicates.index(True)]
