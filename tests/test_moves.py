"""Move semantics: frozen examples, invertibility, validity preservation."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_move_alphabet, is_valid_state

from handlebody_census.tuples import Tuple5
from handlebody_census.verification.moves import (
    GenClass,
    GenRef,
    Move,
    MoveKind,
    apply_move,
    generator_moves,
    inverse_move,
)
from handlebody_census.verification.states import (
    State,
    coordinate_domains,
    flatten,
    iter_valid_states,
    unflatten,
)


def bc_state(b, c):
    return State(a=(), bc=((b, c),), d=(), ef=(), g=())


def ef_state(e, f):
    return State(a=(), bc=(), d=(), ef=((e, f),), g=())


def test_spin_negates_pairs():
    spun = apply_move(3, bc_state(2, 5), Move(MoveKind.SPIN, GenClass.BC, 0))
    assert spun == bc_state(7, 4)


def test_twist_shifts_free_partner_by_finite_partner():
    out = apply_move(3, bc_state(2, 5), Move(MoveKind.TWIST, GenClass.BC, 0, amount=1))
    assert out == bc_state(2, 7)
    out = apply_move(3, ef_state(3, 1), Move(MoveKind.TWIST, GenClass.EF, 0, amount=2))
    assert out == ef_state(3, 7)


def test_permute_swaps_whole_pairs():
    state = State(a=(), bc=(), d=(), ef=((3, 1), (6, 2)), g=())
    out = apply_move(3, state, Move(MoveKind.PERMUTE, GenClass.EF, 0, index2=1))
    assert out.ef == ((6, 2), (3, 1))


def test_slide_adds_multiple_of_source_image():
    state = State(a=(1,), bc=(), d=(), ef=((3, 2),), g=())
    mv = Move(MoveKind.SLIDE, GenClass.A, 0, amount=4, source=GenRef(GenClass.EF, 0, 1))
    assert apply_move(3, state, mv).a == ((1 + 4 * 2) % 9,)
    mv = Move(MoveKind.SLIDE, GenClass.A, 0, amount=1, source=GenRef(GenClass.EF, 0, 0))
    assert apply_move(3, state, mv).a == (4,)


def test_move_contract_violations():
    state = State(a=(1, 0), bc=(), d=(), ef=((3, 2),), g=())
    with pytest.raises(ValueError):
        apply_move(3, state, Move(MoveKind.SPIN, GenClass.A, 5))
    with pytest.raises(ValueError):
        apply_move(3, state, Move(MoveKind.PERMUTE, GenClass.A, 0, index2=0))
    with pytest.raises(ValueError):
        apply_move(3, state, Move(MoveKind.TWIST, GenClass.A, 0, amount=1))
    with pytest.raises(ValueError):
        apply_move(3, state, Move(MoveKind.TWIST, GenClass.EF, 0, amount=3))
    with pytest.raises(ValueError):  # slide within the target's own factor
        apply_move(
            3,
            state,
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=1, source=GenRef(GenClass.A, 0)),
        )
    with pytest.raises(ValueError):  # slides only target handle images
        apply_move(
            3,
            state,
            Move(MoveKind.SLIDE, GenClass.EF, 0, amount=1, source=GenRef(GenClass.A, 0)),
        )


@pytest.mark.parametrize(
    "move,message",
    [
        (Move(MoveKind.SPIN, GenClass.A, 0.0), "move index must be an integer index, got 0.0"),
        (
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=1, source=GenRef(GenClass.EF, 0, 2)),
            "pair slot must be 0 or 1, got 2",
        ),
        (
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=1, source=GenRef(GenClass.A, 1, 1)),
            "class 'a' has no pair slot 1",
        ),
        (Move(MoveKind.SLIDE, GenClass.A, 0, amount=1), "slide needs a source generator"),
        (Move("spin", GenClass.A, 0), "unknown move kind 'spin'"),
        # amounts: an int that is no bool, in the range inverse_move makes
        (Move(MoveKind.TWIST, GenClass.BC, 0, amount=0.5), "twist amount for class 'bc' must be an integer, got 0.5"),
        (Move(MoveKind.TWIST, GenClass.BC, 0, amount=True), "twist amount for class 'bc' must be an integer, got True"),
        (
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=0.5, source=GenRef(GenClass.BC, 0)),
            "slide multiplier must be an integer, got 0.5",
        ),
        (
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=True, source=GenRef(GenClass.BC, 0)),
            "slide multiplier must be an integer, got True",
        ),
        (
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=-3, source=GenRef(GenClass.BC, 0)),
            "slide multiplier must lie in [0, 9), got -3",
        ),
        (
            Move(MoveKind.SLIDE, GenClass.A, 0, amount=100, source=GenRef(GenClass.BC, 0)),
            "slide multiplier must lie in [0, 9), got 100",
        ),
    ],
)
def test_a_malformed_move_says_why(move, message):
    state = State(a=(1, 0), bc=((1, 2),), d=(), ef=((3, 2),), g=())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_move(3, state, move)


def test_inverse_move_refuses_an_unknown_kind():
    # a kind given as its text is no MoveKind
    message = "unknown move kind 'spin'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        inverse_move(3, Move("spin", GenClass.A, 0))


SMALL_SHAPES = [
    (3, Tuple5(0, 1, 0, 0, 0)),
    (3, Tuple5(1, 0, 0, 1, 0)),
    (3, Tuple5(2, 0, 0, 0, 0)),
    (3, Tuple5(0, 0, 1, 0, 1)),
    (3, Tuple5(0, 0, 0, 1, 1)),
]


@pytest.mark.parametrize("p,v", SMALL_SHAPES)
def test_validity_preserved_exhaustively(p, v):
    alphabet = full_move_alphabet(p, v)
    for state in iter_valid_states(p, v):
        for move in alphabet:
            assert is_valid_state(p, v, apply_move(p, state, move)), (state, move)


@pytest.mark.parametrize("p,v", SMALL_SHAPES)
def test_every_move_inverts_within_the_alphabet(p, v):
    states = list(iter_valid_states(p, v))
    samples = states[:: max(1, len(states) // 8)]
    for move in full_move_alphabet(p, v):
        inverse = inverse_move(p, move)
        assert inverse.kind is move.kind
        for state in samples:
            assert apply_move(p, apply_move(p, state, move), inverse) == state


@pytest.mark.parametrize("p,v", [*SMALL_SHAPES, (3, Tuple5(1, 1, 0, 0, 0))])
def test_apply_move_on_broadcasting_arrays_matches_the_scalar_move(p, v):
    # one axis per image, over every combination of the coordinate domains
    doms = coordinate_domains(p, v)
    grid = np.meshgrid(*(np.asarray(dom) for dom in doms), indexing="ij", sparse=True)
    shape = [len(dom) for dom in doms]
    states = [unflatten(v, coords) for coords in itertools.product(*doms)]
    for move in full_move_alphabet(p, v):
        moved = flatten(apply_move(p, unflatten(v, grid), move))
        got = np.stack([np.broadcast_to(x, shape).reshape(-1) for x in moved], axis=1)
        assert got.tolist() == [list(flatten(apply_move(p, s, move))) for s in states], move


def test_generator_moves_are_a_subset_shape():
    v = Tuple5(1, 1, 0, 1, 2)
    gens = generator_moves(3, v)
    kinds = {m.kind for m in gens}
    assert kinds == {MoveKind.PERMUTE, MoveKind.SPIN, MoveKind.TWIST, MoveKind.SLIDE}
    # unit amounts only, adjacent interchanges only
    for m in gens:
        if m.kind in (MoveKind.TWIST, MoveKind.SLIDE):
            assert m.amount == 1
        if m.kind is MoveKind.PERMUTE:
            assert m.index2 == m.index + 1
    # slides for the one handle come from every other-factor generator:
    # b and c, e and f, and the two g entries
    slides = [m for m in gens if m.kind is MoveKind.SLIDE]
    assert len(slides) == 6


_SHAPE_POOL = [(p, v) for p, v in SMALL_SHAPES]


@settings(deadline=None, max_examples=150)
@given(
    pick=st.integers(0, len(_SHAPE_POOL) - 1),
    state_seed=st.integers(0, 10**9),
    move_seed=st.integers(0, 10**9),
)
def test_random_move_preserves_validity_and_inverts(pick, state_seed, move_seed):
    p, v = _SHAPE_POOL[pick]
    states = list(iter_valid_states(p, v))
    alphabet = full_move_alphabet(p, v)
    state = states[state_seed % len(states)]
    move = alphabet[move_seed % len(alphabet)]
    moved = apply_move(p, state, move)
    assert is_valid_state(p, v, moved)
    assert apply_move(p, moved, inverse_move(p, move)) == state
