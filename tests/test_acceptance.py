"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen; without ``-s`` pytest shows them for failing tests only.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import orbit_reference as ref
from bfs_oracle import assert_least_matches_bfs
from oracles import brute_count_nondecreasing, check_move_closure, count_C_jl, full_move_alphabet

from handlebody_census.counting import count_A
from handlebody_census.errors import BudgetExceededError, InadmissibleTupleError
from handlebody_census.theorem_counts import census, count_for_tuple, count_kernel, pools
from handlebody_census.tuples import CaseTag, Tuple5, admissible_tuples
from handlebody_census.verification.canonical import enumerate_canonical
from handlebody_census.verification.moves import apply_move, inverse_move
from handlebody_census.verification.orbits import orbit_count, orbit_partition
from handlebody_census.verification.states import coordinate_domains, unflatten

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL ({description})")
        raise
    print(f"criterion {number}: PASS ({description})")


def test_criterion_1_closed_form_equals_oracle():
    with criterion(1, "closed form equals brute-force oracle, k<=8 j<=6, <5s"):
        start = time.perf_counter()
        for k in range(1, 9):
            for j in range(0, 7):
                assert count_A(k, j) == brute_count_nondecreasing(k, j), (k, j)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_recurrence_and_column_sums():
    with criterion(2, "pinned-first-entry recurrence and column sums, exact"):
        for k in range(1, 9):
            for j in range(1, 6):
                assert sum(count_C_jl(k, j, l) for l in range(1, k + 1)) == count_A(k, j)
                for l in range(1, k + 1):
                    assert count_C_jl(k, j + 1, l) == sum(
                        count_C_jl(k, j, u) for u in range(1, l + 1)
                    )


def test_criterion_3_worked_example_tuples():
    with criterion(3, "admissible shapes for p=5 genus=26, lexicographic, <1s"):
        start = time.perf_counter()
        shapes = admissible_tuples(5, 26)
        elapsed = time.perf_counter() - start
        assert shapes == [
            (0, 0, 0, 2, 0),
            (0, 1, 0, 1, 0),
            (0, 2, 0, 0, 0),
            (1, 0, 0, 1, 0),
            (1, 1, 0, 0, 0),
            (2, 0, 0, 0, 0),
        ]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_published_values_reproduced_where_consistent():
    with criterion(4, "published per-shape values that match the formulas"):
        assert count_kernel(pools(5), 0, 2, 0, 0, 0) == (CaseTag.CASE_ST, 55)
        assert count_kernel(pools(5), 2, 0, 0, 0, 0) == (CaseTag.CASE_R, 10)
        assert count_kernel(pools(5), 1, 1, 0, 0, 0) == (CaseTag.CASE_ST, 10)
        assert count_kernel(pools(5), 0, 1, 0, 1, 0) == (CaseTag.CASE_ST, 100)


def test_criterion_5_discrepancies_surfaced_not_suppressed():
    with criterion(5, "census p=5 g=26: literal formulas, total 283, ref 248, 2 flags"):
        report = census(5, 26)
        counts = {row[:5]: row[6] for row in report.iter_rows()}
        assert counts[(0, 0, 0, 2, 0)] == 80
        assert counts[(1, 0, 0, 1, 0)] == 28
        assert report.total == 283
        assert report.reference_total == 248
        assert len(report.flags) == 2
        assert {(f.paper_value, f.computed_value) for f in report.flags} == {
            (55, 80),
            (18, 28),
        }


def test_criterion_6_canonical_count_equals_closed_form():
    with criterion(6, "normal-form count equals closed form, p=3 g<=30 and p=5 g<=60, <60s"):
        start = time.perf_counter()
        checked = 0
        for p, gmax in [(3, 30), (5, 60)]:
            for g in range(1, gmax + 1):
                for v in admissible_tuples(p, g):
                    try:
                        states = enumerate_canonical(p, v, budget=10**6)
                    except BudgetExceededError:
                        continue  # outside the criterion's stated scope
                    assert len(states) == count_for_tuple(p, v), (p, g, v)
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_7_orbit_oracle_spot_checks():
    with criterion(7, "orbit spot checks match their counts, each BFS <1s"):
        expected = {
            (0, 1, 0, 0, 0): 3,
            (0, 0, 1, 0, 0): 3,
            (1, 0, 0, 0, 0): 3,
            (0, 0, 0, 1, 0): 2,
            (0, 1, 1, 0, 0): 9,
        }
        for comps, orbits in expected.items():
            v = Tuple5(*comps)
            part = orbit_partition(3, v)
            start = time.perf_counter()
            assert_least_matches_bfs(part, 3, v)
            elapsed = time.perf_counter() - start
            stats = orbit_count(3, v)
            assert stats.orbits == orbits, (comps, stats.orbits)
            assert stats.orbits == count_for_tuple(3, v), comps
            assert elapsed < 1.0, f"{comps} took {elapsed:.2f}s"


def _sampled_valid_states(p, v):
    """The states ``list(iter_valid_states(p, v))[:: max(1, n // 6)]`` holds.

    Decodes only the sampled raw indices, through the test-side decode
    over the raw domains, instead of building every state.
    """
    doms = [np.asarray(dom) for dom in coordinate_domains(p, v)]
    rows = np.flatnonzero(ref.digits(p, v, doms)[1])
    rows = rows[:: max(1, len(rows) // 6)]
    return [unflatten(v, images) for images in ref.decode(doms, rows).tolist()]


def test_criterion_8_property_suite_exhaustive():
    with criterion(8, "closure, invertibility, coverage, orbit<=canonical on all small p=3 shapes"):
        shapes = ref.small_p3_shapes()
        assert len(shapes) > 300  # the sweep really is exhaustive
        for v in shapes:
            # every alphabet move keeps every valid state valid
            check_move_closure(3, v)

            # every alphabet move undoes within the alphabet, on sampled states
            samples = _sampled_valid_states(3, v)
            for move in full_move_alphabet(3, v):
                inverse = inverse_move(3, move)
                for state in samples:
                    assert apply_move(3, apply_move(3, state, move), inverse) == state

            # orbits never outnumber normal forms, and each orbit holds one
            try:
                canon = enumerate_canonical(3, v)
            except InadmissibleTupleError:
                continue  # no normal forms to cover for genus < 1 shapes
            part = orbit_partition(3, v)
            assert part.orbit_count <= len(canon), v
            assert len({part.least(s) for s in canon}) == part.orbit_count, v


def test_criterion_8b_bfs_and_union_find_agree_on_overlap():
    with criterion("8b", "BFS and union-find agree wherever both run"):
        for v in ref.small_p3_shapes(limit=2000):
            assert_least_matches_bfs(orbit_partition(3, v), 3, v)


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "handlebody_census", *argv],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_verify_is_deterministic_across_workers():
    with criterion(9, "verify JSON byte-identical across runs and workers 1/2/8"):
        base = [
            "verify", "--p", "3", "--genus", "10",
            "--max-states", "1000000", "--format", "json",
        ]
        outputs = []
        for workers in ("1", "2", "8", "1"):
            code, out = _run_cli(*base, "--workers", workers)
            assert code == 0
            outputs.append(out)
        assert all(out == outputs[0] for out in outputs[1:])
        assert outputs[0].startswith(b"{")
