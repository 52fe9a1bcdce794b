"""Normal-form enumeration: frozen examples, soundness, count equality."""

import sys

import pytest
from oracles import format_state, is_valid_state

from handlebody_census.errors import BudgetExceededError, InadmissibleTupleError
from handlebody_census.theorem_counts import count_for_tuple, count_kernel, pools
from handlebody_census.tuples import CaseTag, Tuple5, admissible_tuples, classify
from handlebody_census.verification import canonical
from handlebody_census.verification.canonical import (
    NormalForms,
    enumerate_canonical,
    low_order_p_values,
    low_unit_values,
)
from handlebody_census.verification.states import State, flatten

ORDER_BUDGET = 5_000


def _closed_form(p, v):
    return count_kernel(pools(p), *v.as_tuple())[1]


def _shapes_within(budget):
    """Every shape of p=3 (g <= 60), p=5 (g <= 150) and p=7 (g <= 300) with
    at most ``budget`` normal forms."""
    for p, gmax in [(3, 60), (5, 150), (7, 300)]:
        for g in range(1, gmax + 1):
            for v in admissible_tuples(p, g):
                if _closed_form(p, v) <= budget:
                    yield p, v


def _join_format(state):
    """The join-based dump formatter that ``format_state`` replaced."""

    def section(values):
        return ",".join(str(x) for x in values)

    return "|".join(
        [
            section(state.a),
            section(x for pair in state.bc for x in pair),
            section(state.d),
            section(x for pair in state.ef for x in pair),
            section(state.g),
        ]
    )


def test_half_range_pools():
    assert low_unit_values(3) == (1, 2, 4)
    assert low_order_p_values(3) == (3,)
    assert low_unit_values(5) == (1, 2, 3, 4, 6, 7, 8, 9, 11, 12)
    assert low_order_p_values(5) == (5, 10)


def test_single_pair_shape_lists_both_normal_forms():
    states = enumerate_canonical(3, Tuple5(0, 0, 0, 1, 0))
    assert list(states) == [
        State(a=(), bc=(), d=(), ef=((3, 1),), g=()),
        State(a=(), bc=(), d=(), ef=((3, 2),), g=()),
    ]


def test_single_b_shape_lists_low_units():
    states = enumerate_canonical(3, Tuple5(0, 1, 0, 0, 0))
    assert [s.bc for s in states] == [((1, 0),), ((2, 0),), ((4, 0),)]


def test_two_b_pairs_at_p5():
    states = enumerate_canonical(5, Tuple5(0, 2, 0, 0, 0))
    assert len(states) == 55
    units = set(low_unit_values(5))
    for s in states:
        (b1, c1), (b2, c2) = s.bc
        assert c1 == c2 == 0
        assert b1 in units and b2 in units and b1 <= b2


def test_handle_only_shape_uses_the_pinned_handle_branch():
    states = enumerate_canonical(3, Tuple5(1, 0, 0, 0, 0))
    assert [s.a for s in states] == [(1,), (2,), (4,)]


def test_inadmissible_shape_is_rejected():
    with pytest.raises(InadmissibleTupleError):
        enumerate_canonical(3, Tuple5(0, 0, 1, 0, 0))


def test_budget_error():
    with pytest.raises(BudgetExceededError) as excinfo:
        enumerate_canonical(5, Tuple5(0, 0, 0, 2, 0), budget=10)
    assert excinfo.value.budget == 10


def test_refusal_is_decided_from_the_count_before_any_pool_is_built(monkeypatch):
    def no_pools(p):
        raise AssertionError("a pool was built before the budget check")

    monkeypatch.setattr(canonical, "low_unit_values", no_pools)
    monkeypatch.setattr(canonical, "low_order_p_values", no_pools)
    for p, comps, budget, required in [
        (13, (1, 0, 0, 3, 2), 200_000, 4_750_200),
        (10007, (0, 1, 0, 0, 0), 10**6, 50_065_021),
        (10007, (0, 3, 0, 0, 0), 10**6, 20_914_716_575_662_749_054_271),
    ]:
        v = Tuple5(*comps)
        with pytest.raises(BudgetExceededError) as excinfo:
            enumerate_canonical(p, v, budget=budget)
        assert excinfo.value.required == _closed_form(p, v) == required
        assert excinfo.value.budget == budget


def test_in_loop_guard_still_refuses_when_the_count_is_wrong(monkeypatch):
    monkeypatch.setattr(canonical, "count_kernel", lambda pool_sizes, *v: (classify(Tuple5(*v)), 0))
    with pytest.raises(BudgetExceededError) as excinfo:
        enumerate_canonical(5, Tuple5(0, 0, 0, 2, 0), budget=10)
    assert excinfo.value.budget == 10
    assert len(enumerate_canonical(5, Tuple5(0, 0, 0, 2, 0), budget=80)) == 80


def test_emission_order_is_strictly_increasing_and_counted_in_advance():
    # enumerate_canonical does not sort: its loops must already emit states
    # in strictly increasing image-vector order.
    shapes = 0
    for p, v in _shapes_within(ORDER_BUDGET):
        states = enumerate_canonical(p, v)
        keys = [flatten(s) for s in states]
        assert all(a < b for a, b in zip(keys, keys[1:])), (p, v)
        assert len(keys) == len(states) == _closed_form(p, v), (p, v)
        shapes += 1
    assert shapes > 2000


def test_template_format_state_equals_the_join_formatter():
    for p, v in _shapes_within(200):
        forms = enumerate_canonical(p, v)
        joined = [_join_format(state) for state in forms]
        assert [format_state(state) for state in forms] == joined, (p, v)
        assert forms.lines() == joined, (p, v)


def test_a_count_past_sys_maxsize_is_an_allocation_failure():
    # len() cannot return it, so the CLI and compare see the documented
    # out-of-memory stop instead of an OverflowError
    pool = range(2**16)
    with pytest.raises(MemoryError):
        NormalForms([(pool,) * 4 + ([()],)])
    assert len(NormalForms([(pool,) * 3 + ([()], [()])])) == 2**48 < sys.maxsize


def test_output_is_sorted_and_duplicate_free():
    for p, v in [(3, Tuple5(1, 0, 0, 1, 0)), (5, Tuple5(0, 1, 0, 1, 0)), (3, Tuple5(0, 0, 0, 2, 1))]:
        states = enumerate_canonical(p, v)
        keys = [flatten(s) for s in states]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def _assert_clauses(p, v, state):
    """Check every normalized property the case demands, clause by clause."""
    units = set(low_unit_values(p))
    orderp = set(low_order_p_values(p))
    case = classify(v)
    bs = [b for b, _ in state.bc]
    cs = [c for _, c in state.bc]
    es = [e for e, _ in state.ef]
    fs = [f for _, f in state.ef]

    assert all(b in units for b in bs) and bs == sorted(bs)
    assert all(c == 0 for c in cs)
    assert all(d in units for d in state.d) and list(state.d) == sorted(state.d)
    assert all(e in orderp for e in es)
    assert list(state.g) == sorted(state.g) and all(z in orderp for z in state.g)
    assert all(0 <= f <= p - 1 for f in fs)

    if case is CaseTag.CASE_ST:
        assert all(x == 0 for x in state.a)
        assert list(state.ef) == sorted(state.ef)
    elif case is CaseTag.CASE_M:
        assert fs[0] >= 1
        assert list(state.ef[1:]) == sorted(state.ef[1:])
    else:  # CASE_R splits into the pinned-pair and pinned-handle branches
        if any(fs):
            assert all(x == 0 for x in state.a)
            assert fs[0] >= 1
            assert list(state.ef[1:]) == sorted(state.ef[1:])
        else:
            assert state.a[0] in units
            assert all(x == 0 for x in state.a[1:])
            assert list(state.ef) == sorted(state.ef)


@pytest.mark.parametrize(
    "p,v",
    [
        (3, (0, 1, 0, 0, 0)),
        (3, (0, 0, 0, 2, 0)),
        (3, (1, 0, 0, 1, 0)),
        (3, (2, 0, 0, 0, 1)),
        (3, (0, 1, 1, 1, 1)),
        (5, (0, 0, 0, 2, 0)),
        (5, (1, 0, 0, 1, 0)),
        (5, (0, 1, 0, 1, 0)),
        (7, (0, 1, 0, 0, 0)),
        (7, (0, 0, 0, 1, 1)),
    ],
)
def test_canonical_soundness(p, v):
    shape = Tuple5(*v)
    for state in enumerate_canonical(p, shape):
        assert is_valid_state(p, shape, state)
        _assert_clauses(p, shape, state)


def test_length_equals_closed_form_across_shapes():
    for p, gmax in [(3, 25), (5, 40), (7, 120)]:
        for g in range(1, gmax + 1):
            for v in admissible_tuples(p, g):
                assert len(enumerate_canonical(p, v)) == count_for_tuple(p, v), (p, g, v)
