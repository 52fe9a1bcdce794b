"""Orbit engine: frozen counts, agreement with BFS, determinism, compare."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import orbit_reference as ref
import pytest
from bfs_oracle import assert_least_matches_bfs, generators_and_inverses
from oracles import check_move_closure, orbit_exact_count

from handlebody_census.errors import BudgetExceededError, InadmissibleTupleError
from handlebody_census.theorem_counts import count_for_tuple
from handlebody_census.tuples import Tuple5
from handlebody_census.verification.canonical import enumerate_canonical
from handlebody_census.verification.orbits import compare, orbit_count, orbit_partition
from handlebody_census.verification import orbits
from handlebody_census.verification.moves import MoveKind, apply_move, generator_moves
from handlebody_census.verification.orbits import (
    _Gather,
    _Space,
    _check_budget,
    _index_dtype,
    _min_label_components,
)
from handlebody_census.verification.states import (
    State,
    coordinate_domains,
    flatten,
    iter_valid_states,
    raw_state_count,
    raw_state_powers,
    unflatten,
)

TESTS_DIR = Path(__file__).resolve().parent


def _successor_arrays(space, moves):
    """Each move's successor array on the quotient: ``arange`` of its size
    gathered through it, or copied where the gather is the identity."""
    rows = np.arange(space.size, dtype=_index_dtype(space.size))
    arrays = []
    for move in moves:
        gather, succ = _Gather(space, move), rows.copy()
        if not gather.identity:
            gather.apply(rows, succ)
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
    assert_least_matches_bfs(orbit_partition(p, v), p, v)
    assert orbit_count(p, v).orbits == expected


def test_orbit_stats_equal_the_raw_engine_record():
    record = json.loads((TESTS_DIR / "orbit_stats_record.json").read_text())
    rows = [(p, Tuple5(*v), stats) for p, v, stats in record["rows"]]
    # the sweep reduces a handle to 0, mod p and not at all, and c and f,
    # at every prime
    for p in (3, 5, 7, 11):
        shapes = [v for q, v, _ in rows if q == p]
        assert any(v.r and v.s + v.t for v in shapes), p
        assert any(v.r and not v.s + v.t and v.m + v.n for v in shapes), p
        assert any(v.r and not v.s + v.t + v.m + v.n for v in shapes), p
        assert any(v.s for v in shapes) and any(v.m for v in shapes), p
    for p, v, stats in rows:
        got = orbit_count(p, v)
        assert [got.orbits, got.state_space_size, got.valid_states, got.largest_orbit] == stats, (p, v)


def _closed_form_valid_count(p, v):
    """The valid states of a shape by their closed form: every raw state
    when s+t > 0, whose b or d images are units; otherwise the raw states
    less the p^r (p(p-1))^m (p-1)^n with no unit image."""
    r, s, t, m, n = v
    raw = raw_state_count(p, v)
    return raw if s + t else raw - p**r * (p * (p - 1)) ** m * (p - 1) ** n


def test_valid_count_has_its_closed_form():
    record = json.loads((TESTS_DIR / "orbit_stats_record.json").read_text())
    recorded = [(p, tuple(v)) for p, v, _ in record["rows"]]
    sweep = [
        (p, v)
        for p in (3, 5, 7)
        for v in itertools.product(range(4), range(2), range(2), range(4), range(3))
        if any(v[:4]) and raw_state_count(p, v) <= 2 * 10**6
    ]
    assert len(sweep) == 242
    for shapes in (recorded, sweep):
        assert {bool(v[1] + v[2]) for _, v in shapes} == {False, True}
    for p, v in recorded + sweep:
        part = orbit_partition(p, v, budget=2 * 10**6)
        assert part.valid_count == _closed_form_valid_count(p, v), (p, v)


#: Every shape with p in {3, 5, 7, 11}, r <= 5, s, t <= 2 and m, n <= 4
#: whose raw space holds at most 2*10^6 states.
PROBE_SHAPES = [
    (p, v)
    for p in (3, 5, 7, 11)
    for v in itertools.product(range(6), range(3), range(3), range(5), range(5))
    if any(v[:4]) and raw_state_count(p, v) <= 2 * 10**6
]


def _quotient_size(p, v):
    """The states of a shape's coset quotient: h^r p^m (q-p)^(s+t)
    (p-1)^(m+n), q = p^2, where a handle's h is 1 when some b or d image
    is a unit (s+t > 0), p when only order-p images are held, and q when
    there is nothing to slide over."""
    r, s, t, m, n = v
    q = p * p
    h = 1 if s + t else p if m + n else q
    return h**r * p**m * (q - p) ** (s + t) * (p - 1) ** (m + n)


def test_the_quotient_has_its_closed_form_size():
    record = json.loads((TESTS_DIR / "orbit_stats_record.json").read_text())
    recorded = [(p, tuple(v)) for p, v, _ in record["rows"]]
    assert len(recorded) == 483 and len(PROBE_SHAPES) == 581
    for p, v in recorded + PROBE_SHAPES:
        assert _Space(p, Tuple5(*v)).size == _quotient_size(p, v), (p, v)


def test_the_orbit_counts_have_their_closed_form():
    # the form's H is 0, k, h or 1 by r and m+n when s = t = 0
    branches = {(min(v[0], 2), v[0] == 1 and bool(v[3] + v[4])) for _, v in PROBE_SHAPES if not v[1] + v[2]}
    assert branches == {(0, False), (1, False), (1, True), (2, False)}
    theorem_differs = 0
    for p, v in PROBE_SHAPES:
        orbits = orbit_count(p, v, budget=2 * 10**6).orbits
        assert orbits == orbit_exact_count(p, v), (p, v)
        theorem_differs += orbits != count_for_tuple(p, v)
    assert theorem_differs == 142


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
        # read off the quotient: a and f mod p; a and c to 0; r >= 2 with
        # a mod p
        (5, Tuple5(1, 0, 0, 1, 0)),
        (5, Tuple5(1, 1, 0, 0, 0)),
        (7, Tuple5(2, 0, 0, 0, 1)),
    ]:
        assert_least_matches_bfs(orbit_partition(p, v), p, v)


def test_the_bfs_oracle_fails_a_partition_with_one_wrong_least():
    # holds under python -O too: the helper module's asserts are rewritten
    p, v = 3, Tuple5(0, 0, 0, 1, 0)
    part = orbit_partition(p, v)
    assert_least_matches_bfs(part, p, v)
    last = list(iter_valid_states(p, v))[-1]
    assert part.least(last) != last
    wrong = types.SimpleNamespace(
        valid_count=part.valid_count, least=lambda state: state if state == last else part.least(state)
    )
    with pytest.raises(AssertionError):
        assert_least_matches_bfs(wrong, p, v)
    short = types.SimpleNamespace(valid_count=part.valid_count - 1, least=part.least)
    with pytest.raises(AssertionError):
        assert_least_matches_bfs(short, p, v)


def test_least_is_the_first_member_of_each_orbit():
    p, v = 3, Tuple5(0, 0, 0, 1, 0)
    part = orbit_partition(p, v)
    states = list(iter_valid_states(p, v))  # lexicographic order
    least = [part.least(state) for state in states]
    for rep in set(least):
        members = [state for state, label in zip(states, least) if label == rep]
        assert members[0] == rep
    assert part.orbit_count == len(set(least))
    assert part.orbit_sizes().sum() == part.valid_count


def test_budget_check_decides_as_the_exact_size_does():
    # the bound-first check refuses exactly the sizes over min(budget, int64)
    # and names each size as a decimal within int64, by its powers past it
    index_max = 2**63 - 1
    for p in (3, 5, 7):
        for comps in itertools.product((0, 1, 7, 30), repeat=5):
            if not any(comps[:4]):
                continue
            v = Tuple5(*comps)
            raw = raw_state_count(p, v)
            powers = "*".join(
                f"{b}^{e}" if e > 1 else str(b) for b, e in sorted(raw_state_powers(p, v).items()) if e
            )
            for budget in (0, 10, 10**6, index_max, 10**40):
                if raw <= min(budget, index_max):
                    assert _check_budget(p, v, budget) == raw
                    continue
                with pytest.raises(BudgetExceededError) as excinfo:
                    _check_budget(p, v, budget)
                size = str(raw) if raw <= index_max else powers
                limit = f"the budget of {budget}" if raw > budget else f"the int64 index range of {index_max}"
                assert str(excinfo.value).endswith(f" {size} states, over {limit}"), (p, v, budget)
                assert excinfo.value.required in (raw, None)


def test_budget_error_names_required_states():
    with pytest.raises(BudgetExceededError) as excinfo:
        orbit_count(5, Tuple5(0, 0, 0, 2, 0), budget=10)
    assert excinfo.value.required == 10000
    assert excinfo.value.budget == 10


def test_vectorized_successors_match_apply_move():
    # the valid rows are the valid states reduced by the reference's own
    # moduli, and each gathered successor is apply_move's, reduced
    for p, v in [
        (3, Tuple5(0, 1, 0, 0, 0)),
        (3, Tuple5(1, 0, 0, 1, 0)),
        (3, Tuple5(0, 0, 0, 2, 0)),
        (3, Tuple5(2, 0, 0, 0, 0)),
        (3, Tuple5(1, 1, 0, 0, 0)),
        (5, Tuple5(1, 0, 0, 0, 1)),
    ]:
        space = _Space(p, v)
        rows = np.flatnonzero(space.valid_mask())
        reps = sorted({tuple(ref.reduce(p, v, flatten(s))) for s in iter_valid_states(p, v)})
        assert [tuple(x) for x in ref.decode(space.dom_arrays, rows).tolist()] == reps
        states = [unflatten(v, rep) for rep in reps]
        moves = generators_and_inverses(p, v)
        for move, succ in zip(moves, _successor_arrays(space, moves)):
            scalar = [ref.reduce(p, v, flatten(apply_move(p, s, move))) for s in states]
            assert ref.decode(space.dom_arrays, succ[rows]).tolist() == scalar, (p, v, move)


def _assert_successors_match_the_decode_reference(p, v):
    space = _Space(p, v)
    reps = [sorted({x % k for x in dom}) for dom, k in zip(coordinate_domains(p, v), ref.moduli(p, v))]
    assert [dom.tolist() for dom in space.dom_arrays] == reps, v
    assert np.array_equal(space.valid_mask(), ref.digits(p, v, space.dom_arrays)[1]), v
    moves = generators_and_inverses(p, v)
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


@pytest.mark.parametrize("p,v", [(7, (0, 1, 0, 0, 0)), (3, (0, 1, 0, 1, 0)), (3, (2, 0, 0, 1, 0))])
def test_every_twist_gather_is_the_identity_and_skipped(p, v):
    v = Tuple5(*v)
    space = _Space(p, v)
    moves = generators_and_inverses(p, v)
    assert len(set(moves)) == len(moves)
    gathers = [_Gather(space, move) for move in moves]
    twists = [g for move, g in zip(moves, gathers) if move.kind is MoveKind.TWIST]
    assert len(twists) == 2 * (v.s + v.m)
    assert all(g.identity for g in twists)
    for gather, succ in zip(gathers, _successor_arrays(space, moves)):
        assert gather.identity == np.array_equal(succ, np.arange(space.size))
    part = orbit_partition(p, v)
    generators = generator_moves(p, v)
    assert part.moves == sum(not g.identity for move, g in zip(moves, gathers) if move in generators)
    assert_least_matches_bfs(part, p, v)


def test_the_engine_applies_the_non_identity_generators():
    record = json.loads((TESTS_DIR / "orbit_stats_record.json").read_text())
    for p, v, _ in record["rows"]:
        v = Tuple5(*v)
        space = _Space(p, v)
        gathers = [_Gather(space, move) for move in generator_moves(p, v)]
        assert orbit_partition(p, v).moves == sum(not g.identity for g in gathers), (p, v)


class _Permutation:
    """A stub gather: ``out[x] = src[succ[x]]``."""

    def __init__(self, cycles, n):
        self.succ = np.arange(n)
        for cycle in cycles:
            self.succ[cycle] = np.roll(cycle, -1)

    def apply(self, src, out):
        out[:] = src[self.succ]


@pytest.mark.parametrize(
    "cycles",
    [
        # each row's successor is the next larger row, so the least row's
        # label travels against the cycle, one row per gather
        [list(range(0, 9)), list(range(9, 14)), [14, 15]],
        # the least row of each cycle sits in its middle; cycles interleave
        [[9, 4, 1, 12, 7], [5, 13, 0, 8], [11, 2, 10, 6, 3]],
    ],
)
def test_min_label_components_labels_each_cycle_by_its_least_row(cycles):
    n = sum(map(len, cycles))
    labels, rounds = _min_label_components(n, [_Permutation(cycles, n)])
    for cycle in cycles:
        assert labels[cycle].tolist() == [min(cycle)] * len(cycle), cycle
    assert rounds >= 2


def test_verify_and_orbits_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call in a process, which
    # would add its import time to every command-line run
    child = (
        "import contextlib, io, json, sys\n"
        "from handlebody_census import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [\n"
        "        cli.main(['orbits', '--p', '5', '--tuple', '0,0,0,3,0', '--format', 'json']),\n"
        "        cli.main(['verify', '--p', '5', '--genus', '26', '--format', 'json']),\n"
        "    ]\n"
        "print(json.dumps({'codes': codes, 'numpy.ma': 'numpy.ma' in sys.modules}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS_DIR.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "numpy.ma": False}


def test_the_quotient_of_one_bc_pair_keeps_the_units():
    # c reduces to 0: the 2058 raw states of p=7 (0,1,0,0,0) are 42 units b,
    # each standing for 49 states, and the spin pairs b with -b
    part = orbit_partition(7, Tuple5(0, 1, 0, 0, 0))
    assert (part.raw, part.quotient, part.fiber) == (2058, 42, 49)
    assert part.moves == 1
    assert part.rounds == 2
    assert part.orbit_count == 21 and part.largest_orbit == 2 * 49


def test_counts_build_nothing_of_raw_size():
    # p=7 (2,0,1,0,1): 605,052 raw states, 252 on the quotient
    v = Tuple5(2, 0, 1, 0, 1)
    canon = list(enumerate_canonical(7, v))
    tracemalloc.start()
    try:
        part = orbit_partition(7, v)
        counts = (part.orbit_count, part.valid_count, part.largest_orbit, int(part.orbit_sizes().sum()))
        least = {part.least(state) for state in canon}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (part.raw, part.quotient) == (605052, 252)
    assert counts == (63, 605052, 9604, 605052)
    assert len(least) == part.orbit_count
    assert peak < part.raw // 4


def test_an_orbit_mixing_valid_and_invalid_states_raises(monkeypatch):
    # row 1 is (e, f) = (3, 1), a valid state; row 0 is (3, 0), not surjective
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


def test_least_round_trip():
    for p, v in [(3, Tuple5(0, 0, 0, 1, 0)), (5, Tuple5(1, 1, 0, 0, 0))]:
        part = orbit_partition(p, v)
        least = set()
        for state in iter_valid_states(p, v):
            rep = part.least(state)
            assert flatten(rep) <= flatten(state)
            least.add(rep)
        assert len(least) == part.orbit_count
        for rep in least:
            assert part.least(rep) == rep
    part = orbit_partition(3, Tuple5(0, 0, 0, 1, 0))
    with pytest.raises(KeyError):
        part.least(State(a=(), bc=(), d=(), ef=((3, 0),), g=()))  # not surjective
    with pytest.raises(KeyError):
        part.least(State(a=(), bc=(), d=(), ef=((1, 1),), g=()))  # e of order p^2
    with pytest.raises(KeyError):
        part.least(State(a=(), bc=(), d=(), ef=((3, 1.0),), g=()))  # no integer
    # a bool is its int, as State equality has it
    assert part.least(State(a=(), bc=(), d=(), ef=((3, True),), g=())) == part.least(
        State(a=(), bc=(), d=(), ef=((3, 1),), g=())
    )
    # other nestings: a bare image for a pair, and a pair of another length
    # whose first images would be valid
    with pytest.raises(KeyError):
        part.least(State(a=(), bc=(), d=(), ef=(3,), g=()))
    with pytest.raises(KeyError):
        orbit_partition(3, Tuple5(0, 1, 0, 0, 0)).least(State(a=(), bc=((1,),), d=(), ef=(), g=()))
    # states of other shapes: fewer and more ef pairs than (0,0,0,2,0) holds
    part = orbit_partition(3, Tuple5(0, 0, 0, 2, 0))
    for ef in [((3, 1),), ((3, 1), (3, 1), (3, 1))]:
        with pytest.raises(KeyError):
            part.least(State(a=(), bc=(), d=(), ef=ef, g=()))


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


def test_orbit_partition_catches_a_move_that_leaves_the_domain(monkeypatch):
    patch, shape, message = BROKEN_MOVES["domain"]
    monkeypatch.setattr(orbits, "apply_move", getattr(ref, patch)(orbits.apply_move))
    with pytest.raises(AssertionError, match=message):
        orbit_partition(3, Tuple5(*shape))


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
        assert len({part.least(s) for s in canon}) == part.orbit_count


def test_theorem_canonical_orbit_consistency_when_no_slides_or_pins():
    # shapes whose alphabet has no slides and no pinned pair agree exactly
    for p, v in [(3, Tuple5(0, 2, 0, 0, 0)), (3, Tuple5(0, 1, 1, 0, 1))]:
        report = compare(p, v)
        assert report.theorem_count == report.canonical_count == report.orbit_count
