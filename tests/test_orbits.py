"""Orbit engine: frozen counts, agreement with BFS, determinism, compare."""

import numpy as np
import pytest
from bfs_oracle import bfs_labels

from handlebody_census import (
    BudgetExceededError,
    InadmissibleTupleError,
    Tuple5,
    compare,
    count_for_tuple,
    enumerate_canonical,
    orbit_count,
    orbit_partition,
)
from handlebody_census.verification import State, apply_move, check_move_closure
from handlebody_census.verification.moves import generator_moves, inverse_move
from handlebody_census.verification import orbits
from handlebody_census.verification.orbits import (
    _Space,
    _moves_with_inverses,
    _successor_rows,
)
from handlebody_census.verification.states import iter_valid_states


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
        bfs = bfs_labels(p, v)
        for workers in (1, 2, 8):
            part = orbit_partition(p, v, workers=workers)
            assert np.array_equal(bfs, part.labels), (p, v, workers)


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
        dig, valid = space.digits()
        rows = np.flatnonzero(valid)
        states = list(iter_valid_states(p, v))
        assert [space.state_row(s) for s in states] == rows.tolist()
        for move in _moves_with_inverses(p, v):
            vec = _successor_rows(space, dig[rows], rows, move)
            scalar = [space.state_row(apply_move(p, s, move)) for s in states]
            assert vec.tolist() == scalar, (p, v, move)


def test_an_orbit_mixing_valid_and_invalid_states_raises(monkeypatch):
    # raw row 1 is (e, f) = (3, 1), a valid state; row 0 is (3, 0), not surjective
    v = Tuple5(0, 0, 0, 1, 0)
    space = _Space(3, v)
    dig, valid = space.digits()
    assert valid[1] and not valid[0]
    exact = orbits._successor_rows

    def escaping(space, dig, rows, move):
        out = exact(space, dig, rows, move)
        out[rows == 1] = 0
        return out

    monkeypatch.setattr(orbits, "_successor_rows", escaping)
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


def test_orbit_count_ignores_admissibility():
    # a shape may force genus 0 and still have a perfectly good state space
    stats = orbit_count(3, Tuple5(0, 0, 1, 0, 0))
    assert stats.orbits == 3
    assert stats.valid_states == 6


def test_check_move_closure_runs():
    assert check_move_closure(3, Tuple5(0, 0, 0, 1, 0)) > 0
    assert check_move_closure(3, Tuple5(1, 1, 0, 0, 0)) > 0


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
