"""State validity, domains, ordering, and the dump format."""

import itertools
import math

import pytest

from handlebody_census.tuples import Tuple5
from handlebody_census.verification.states import (
    is_valid_state,
    iter_valid_states,
    raw_state_count,
)
from handlebody_census.verification import (
    State,
    coordinate_domains,
    encode_state,
    flatten,
    format_state,
    is_order_p,
    is_unit,
    order_p_values,
    parse_state,
    unflatten,
    unit_values,
)


def bc_state(b, c):
    return State(a=(), bc=((b, c),), d=(), ef=(), g=())


def ef_state(e, f):
    return State(a=(), bc=(), d=(), ef=((e, f),), g=())


def test_validity_examples():
    assert not is_valid_state(3, Tuple5(0, 1, 0, 0, 0), bc_state(3, 0))
    assert is_valid_state(3, Tuple5(0, 1, 0, 0, 0), bc_state(2, 5))
    # all images land in the order-p subgroup: not surjective
    assert not is_valid_state(3, Tuple5(0, 0, 0, 1, 0), ef_state(3, 6))
    assert is_valid_state(3, Tuple5(0, 0, 0, 1, 0), ef_state(3, 1))


def test_validity_rejects_out_of_range_images():
    assert not is_valid_state(3, Tuple5(0, 1, 0, 0, 0), bc_state(2, 9))
    assert not is_valid_state(3, Tuple5(0, 1, 0, 0, 0), bc_state(-1, 0))


def test_dimension_mismatch_is_a_contract_violation():
    with pytest.raises(ValueError):
        is_valid_state(3, Tuple5(0, 2, 0, 0, 0), bc_state(2, 5))


def test_residue_classification():
    assert unit_values(3) == (1, 2, 4, 5, 7, 8)
    assert order_p_values(3) == (3, 6)
    assert unit_values(5) == tuple(x for x in range(1, 25) if x % 5)
    assert order_p_values(5) == (5, 10, 15, 20)
    for x in range(9):
        assert is_unit(x, 3) == (x in unit_values(3))
        assert is_order_p(x, 3) == (x in order_p_values(3))


@pytest.mark.parametrize(
    "p,v,raw,valid",
    [
        (3, (0, 1, 0, 0, 0), 54, 54),
        (3, (0, 0, 0, 1, 0), 18, 12),
        (3, (1, 0, 0, 1, 0), 162, 144),
        (3, (2, 0, 0, 0, 0), 81, 72),
        (3, (0, 0, 0, 2, 0), 324, 288),
        (3, (0, 1, 1, 0, 0), 324, 324),
        (5, (0, 0, 0, 2, 0), 10000, 9600),
    ],
)
def test_state_space_sizes(p, v, raw, valid):
    shape = Tuple5(*v)
    assert raw_state_count(p, shape) == raw
    assert sum(1 for _ in iter_valid_states(p, shape)) == valid


def test_raw_state_count_is_the_product_of_domain_sizes():
    for p in (3, 5, 7):
        for comps in itertools.product(range(3), repeat=5):
            try:
                shape = Tuple5(*comps)
            except ValueError:
                continue
            domains = coordinate_domains(p, shape)
            assert raw_state_count(p, shape) == math.prod(map(len, domains)), (p, comps)


def test_all_enumerated_states_are_valid():
    for p, v in [(3, Tuple5(1, 0, 0, 1, 0)), (3, Tuple5(0, 1, 0, 0, 1))]:
        for state in iter_valid_states(p, v):
            assert is_valid_state(p, v, state)


def test_enumeration_order_matches_encoding():
    for p, v in [(3, Tuple5(0, 1, 0, 0, 0)), (3, Tuple5(1, 0, 0, 1, 0))]:
        encodings = [encode_state(p, v, s) for s in iter_valid_states(p, v)]
        assert encodings == sorted(encodings)
        assert len(set(encodings)) == len(encodings)


def test_flatten_unflatten_round_trip():
    v = Tuple5(1, 1, 1, 1, 1)
    state = State(a=(7,), bc=((2, 5),), d=(4,), ef=((3, 8),), g=(6,))
    assert unflatten(v, flatten(state)) == state
    with pytest.raises(ValueError):
        unflatten(v, flatten(state)[:-1])


def test_dump_format_round_trip():
    state = State(a=(0, 7), bc=((2, 5),), d=(), ef=((3, 1), (6, 0)), g=(3,))
    text = format_state(state)
    assert text == "0,7|2,5||3,1,6,0|3"
    assert parse_state(text) == state
    empty_heavy = State(a=(), bc=((2, 0),), d=(), ef=(), g=())
    assert format_state(empty_heavy) == "|2,0|||"
    assert parse_state("|2,0|||") == empty_heavy


def test_parse_state_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_state("1,2|3")
    with pytest.raises(ValueError):
        parse_state("|2,0,1|||")  # bc section with a dangling half pair
