"""Orbit engine: frozen counts, agreement with BFS, determinism, compare."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orbit_reference as ref
import pytest
from bfs_oracle import bfs_labels, generators_and_inverses
from oracles import check_move_closure

from handlebody_census.errors import BudgetExceededError, InadmissibleTupleError
from handlebody_census.tuples import Tuple5
from handlebody_census.verification.canonical import enumerate_canonical
from handlebody_census.verification.orbits import compare, orbit_count, orbit_partition
from handlebody_census.verification import orbits
from handlebody_census.verification.moves import GenClass, MoveKind, apply_move
from handlebody_census.verification.orbits import (
    _Gather,
    _Space,
    _engine_moves,
    _index_dtype,
)
from handlebody_census.verification.states import State, iter_valid_states

TESTS_DIR = Path(__file__).resolve().parent


def _successor_arrays(space, moves):
    """Each move's raw successor array: ``arange(raw)`` gathered through it."""
    rows = np.arange(space.raw, dtype=_index_dtype(space.raw))
    arrays = []
    for move in moves:
        succ = np.empty_like(rows)
        _Gather(space, move).apply(rows, succ)
        arrays.append(succ)
    return arrays


@pytest.mark.parametrize(
    "p,v,expected",
    [
        (3, (0, 1, 0, 0, 0), 3),
        (3, (0, 0, 1, 0, 0), 3),
        (3, (1, 0, 0, 0, 0), 3),
        (3, (0, 0, 0, 1, 0), 2),
        (3, (0, 1, 1, 0, 0), 9),
        (3, (0, 0, 0, 2, 0), 5),  # one fewer than the closed form's 6
    ],
)
def test_frozen_orbit_counts(p, v, expected):
    v = Tuple5(*v)
    assert np.array_equal(orbit_partition(p, v).labels, bfs_labels(p, v))
    assert orbit_count(p, v).orbits == expected


def test_orbit_stats_fields():
    stats = orbit_count(3, Tuple5(0, 1, 0, 0, 0))
    assert stats.orbits == 3
    assert stats.state_space_size == 54
    assert stats.valid_states == 54
    assert stats.largest_orbit == 18


def test_slide_collapse_findings():
    # slides over other factors merge classes the closed forms keep apart;
    # the oracle reports what the moves actually identify
    assert orbit_count(3, Tuple5(1, 0, 0, 1, 0)).orbits == 3  # closed form: 5
    assert orbit_count(3, Tuple5(2, 0, 0, 0, 0)).orbits == 1  # closed form: 3
    assert orbit_count(5, Tuple5(0, 0, 0, 2, 0)).orbits == 52  # closed form: 80


def test_methods_and_workers_produce_identical_labels():
    for p, v in [
        (3, Tuple5(0, 2, 0, 0, 0)),
        (3, Tuple5(0, 0, 0, 2, 0)),
        (3, Tuple5(1, 0, 0, 1, 0)),
        (3, Tuple5(1, 1, 0, 0, 0)),
        (5, Tuple5(0, 0, 0, 1, 0)),
    ]:
        assert np.array_equal(bfs_labels(p, v), orbit_partition(p, v).labels), (p, v)


def test_labels_are_least_member_indices():
    part = orbit_partition(3, Tuple5(0, 0, 0, 1, 0))
    labels = part.labels
    for rep in np.unique(labels):
        members = np.nonzero(labels == rep)[0]
        assert members.min() == rep
    assert part.orbit_count == len(np.unique(labels))
    assert part.orbit_sizes().sum() == part.valid_count


def test_budget_error_names_required_states():
    with pytest.raises(BudgetExceededError) as excinfo:
        orbit_count(5, Tuple5(0, 0, 0, 2, 0), budget=10)
    assert excinfo.value.required == 10000
    assert excinfo.value.budget == 10


def test_vectorized_successors_match_apply_move():
    for p, v in [
        (3, Tuple5(0, 1, 0, 0, 0)),
        (3, Tuple5(1, 0, 0, 1, 0)),
        (3, Tuple5(0, 0, 0, 2, 0)),
        (3, Tuple5(2, 0, 0, 0, 0)),
        (3, Tuple5(1, 1, 0, 0, 0)),
    ]:
        space = _Space(p, v)
        rows = np.flatnonzero(space.valid_mask())
        states = list(iter_valid_states(p, v))
        assert [space.state_row(s) for s in states] == rows.tolist()
        moves = _engine_moves(p, v)
        for move, succ in zip(moves, _successor_arrays(space, moves)):
            scalar = [space.state_row(apply_move(p, s, move)) for s in states]
            assert succ[rows].tolist() == scalar, (p, v, move)


def _assert_successors_match_the_decode_reference(p, v):
    space = _Space(p, v)
    assert np.array_equal(space.valid_mask(), ref.digits(space)[1]), v
    moves = _engine_moves(p, v)
    expected = ref.successor_arrays(space, moves)
    for move, got, want in zip(moves, _successor_arrays(space, moves), expected):
        assert got.dtype == want.dtype, (v, move)
        assert np.array_equal(got, want), (v, move)


def test_successor_arrays_match_the_decode_reference_on_small_p3_shapes():
    shapes = ref.small_p3_shapes(limit=20_000)
    assert len(shapes) > 200
    for v in shapes:
        _assert_successors_match_the_decode_reference(3, v)


@pytest.mark.parametrize(
    "p,v",
    [
        (5, (0, 0, 0, 3, 0)),
        # slides with free, unit and order-p sources, from before and after
        # the target, adjacent and not (a2 over a0)
        (5, (3, 0, 0, 0, 1)),
        (5, (1, 1, 0, 0, 0)),
        (7, (1, 0, 1, 0, 1)),
        (7, (1, 0, 0, 1, 0)),
    ],
)
def test_successor_arrays_match_the_decode_reference_beyond_p3(p, v):
    _assert_successors_match_the_decode_reference(p, Tuple5(*v))


def test_engine_moves_double_each_twist_and_keep_the_generators_orbits():
    p, v = 5, Tuple5(1, 1, 0, 1, 0)
    moves = _engine_moves(p, v)
    twists = {(m.cls, m.amount) for m in moves if m.kind is MoveKind.TWIST}
    assert twists == {(GenClass.BC, a) for a in (1, 2, 4, 8, 16)} | {
        (GenClass.EF, a) for a in (1, 2, 4)
    }
    others = [m for m in moves if m.kind is not MoveKind.TWIST]
    assert len(set(others)) == len(others)
    assert set(others) == {m for m in generators_and_inverses(p, v) if m.kind is not MoveKind.TWIST}


def test_twist_cycles_close_in_one_round():
    # 16 rounds when each round stepped a twist and its inverse once
    part = orbit_partition(7, Tuple5(0, 1, 0, 0, 0))
    assert part.raw == 2058
    assert part.rounds == 2
    assert part.moves == len(_engine_moves(7, Tuple5(0, 1, 0, 0, 0))) == 7
    assert np.array_equal(part.labels, bfs_labels(7, Tuple5(0, 1, 0, 0, 0)))


def test_an_orbit_mixing_valid_and_invalid_states_raises(monkeypatch):
    # raw row 1 is (e, f) = (3, 1), a valid state; row 0 is (3, 0), not surjective
    v = Tuple5(0, 0, 0, 1, 0)
    valid = _Space(3, v).valid_mask()
    assert valid[1] and not valid[0]
    exact = orbits._Gather.apply

    def escaping(gather, src, out):
        exact(gather, src, out)
        out[1] = src[0]

    monkeypatch.setattr(orbits._Gather, "apply", escaping)
    with pytest.raises(AssertionError, match="mixes valid and invalid states"):
        orbit_partition(3, v)


def test_state_index_round_trip():
    v = Tuple5(0, 0, 0, 1, 0)
    part = orbit_partition(3, v)
    states = list(iter_valid_states(3, v))
    for i, state in enumerate(states):
        assert part.state_index(state) == i
    with pytest.raises(KeyError):
        part.state_index(State(a=(), bc=(), d=(), ef=((3, 0),), g=()))  # not surjective
    # states of other shapes: fewer and more ef pairs than (0,0,0,2,0) holds
    part = orbit_partition(3, Tuple5(0, 0, 0, 2, 0))
    for ef in [((3, 1),), ((3, 1), (3, 1), (3, 1))]:
        with pytest.raises(KeyError):
            part.state_index(State(a=(), bc=(), d=(), ef=ef, g=()))


def test_orbit_count_ignores_admissibility():
    # a shape may force genus 0 and still have a perfectly good state space
    stats = orbit_count(3, Tuple5(0, 0, 1, 0, 0))
    assert stats.orbits == 3
    assert stats.valid_states == 6


def test_check_move_closure_runs():
    # (valid states) x (full alphabet)
    assert check_move_closure(3, Tuple5(0, 0, 0, 1, 0)) == 12 * 4
    assert check_move_closure(3, Tuple5(1, 1, 0, 0, 0)) == 486 * 29
    assert check_move_closure(3, Tuple5(1, 0, 0, 1, 0)) == 144 * 23


BROKEN_MOVES = {
    # (patch, shape, message): a bc spin writes b = 0, which is no unit
    "domain": ("spins_leave_the_domain", (0, 1, 0, 0, 0), "left the per-generator domain"),
    # a free-handle spin writes a = 0: in the domain, but the only unit is gone
    "surjectivity": ("spins_zero_the_free_handles", (1, 0, 0, 1, 0), "broke surjectivity"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_MOVES))
def test_check_move_closure_catches_a_broken_move(monkeypatch, case):
    patch, shape, message = BROKEN_MOVES[case]
    monkeypatch.setattr(orbits, "apply_move", getattr(ref, patch)(orbits.apply_move))
    with pytest.raises(AssertionError, match=message):
        check_move_closure(3, Tuple5(*shape))


@pytest.mark.parametrize("case", sorted(BROKEN_MOVES))
def test_check_move_closure_catches_a_broken_move_under_python_O(case):
    patch, shape, message = BROKEN_MOVES[case]
    child = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(4)\n"
        "import orbit_reference as ref\n"
        "from oracles import check_move_closure\n"
        "from handlebody_census import Tuple5\n"
        "from handlebody_census.verification import orbits\n"
        f"orbits.apply_move = ref.{patch}(orbits.apply_move)\n"
        "try:\n"
        f"    check_move_closure(3, Tuple5{shape})\n"
        "except AssertionError as exc:\n"
        f"    sys.exit(3 if {message!r} in str(exc) else 5)\n"
    )
    env = dict(os.environ)
    path = [str(TESTS_DIR.parent / "src"), str(TESTS_DIR), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 3, proc.stderr


def test_compare_agreeing_shape():
    report = compare(3, Tuple5(0, 1, 0, 0, 0))
    assert (report.theorem_count, report.canonical_count, report.orbit_count) == (3, 3, 3)
    assert report.agreement == {
        "theorem_vs_canonical": True,
        "theorem_vs_orbit": True,
        "canonical_vs_orbit": True,
    }
    assert report.complete and report.errors == []
    assert report.state_space_size == 54
    assert report.valid_states == 54


def test_compare_disagreeing_shape_is_reported_not_raised():
    report = compare(3, Tuple5(1, 0, 0, 1, 0))
    assert report.theorem_count == 5
    assert report.canonical_count == 5
    assert report.orbit_count == 3
    assert report.agreement["theorem_vs_canonical"] is True
    assert report.agreement["theorem_vs_orbit"] is False
    assert report.agreement["canonical_vs_orbit"] is False
    assert report.complete


def test_compare_budget_exhaustion_marks_incomplete():
    report = compare(5, Tuple5(0, 0, 0, 2, 0), budget=10)
    assert not report.complete
    assert report.orbit_count is None and report.canonical_count is None
    assert report.agreement == {
        "theorem_vs_canonical": None,
        "theorem_vs_orbit": None,
        "canonical_vs_orbit": None,
    }
    assert len(report.errors) == 2


def test_compare_requires_admissible_shape():
    with pytest.raises(InadmissibleTupleError):
        compare(3, Tuple5(0, 0, 1, 0, 0))


def test_orbit_never_exceeds_canonical_on_samples():
    for p, v in [
        (3, Tuple5(0, 1, 0, 1, 0)),
        (3, Tuple5(0, 0, 0, 2, 1)),
        (5, Tuple5(1, 0, 0, 1, 0)),
    ]:
        part = orbit_partition(p, v)
        canon = enumerate_canonical(p, v)
        assert part.orbit_count <= len(canon)
        # every orbit contains at least one normal form
        reps = {int(part.labels[part.state_index(s)]) for s in canon}
        assert reps == set(np.unique(part.labels).tolist())


def test_theorem_canonical_orbit_consistency_when_no_slides_or_pins():
    # shapes whose alphabet has no slides and no pinned pair agree exactly
    for p, v in [(3, Tuple5(0, 2, 0, 0, 0)), (3, Tuple5(0, 1, 1, 0, 1))]:
        report = compare(p, v)
        assert report.theorem_count == report.canonical_count == report.orbit_count
