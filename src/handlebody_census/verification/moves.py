"""Image-level action of the realizable moves.

Moves act on image vectors with the conjugating words already abelianized
away (conjugation is invisible in an abelian target), so each move is a
small affine update of one or two coordinates mod p^2:

* PERMUTE swaps two same-class entries (whole pairs for paired classes),
* SPIN negates one entry, or one pair jointly,
* TWIST adds a multiple of the finite-order partner to the free partner
  inside one pair: (b, c) -> (b, c + v*b) and (e, f) -> (e, f + w*e),
* SLIDE adds a multiple of a single generator image from another factor to
  one free-handle image a_i.

Every move preserves validity, and every move's inverse is again a move of
the same kind, so closure under the alphabet is a genuine equivalence
relation on states.
"""

from __future__ import annotations

import dataclasses
import enum

from ..tuples import Shape
from .states import LAYOUT, State


class MoveKind(enum.Enum):
    PERMUTE = "permute"
    SPIN = "spin"
    TWIST = "twist"
    SLIDE = "slide"


class GenClass(enum.Enum):
    """The generator classes, in the state order of :data:`~.states.LAYOUT`.

    Each member carries two plain attributes, read once or more per move:
    ``field``, the :class:`State` field holding the class (its value), and
    ``paired``, whether its entries are (finite-order, free) pairs.
    ``Enum.value`` and an enum's hash are Python-level calls.
    """

    A = "a"
    BC = "bc"
    D = "d"
    EF = "ef"
    G = "g"

    def __init__(self, field: str):
        self.field = field
        self.paired = len(LAYOUT[State._fields.index(field)]) > 1


@dataclasses.dataclass(frozen=True)
class GenRef:
    """One concrete generator: class, index, and pair slot (0 finite, 1 free)."""

    cls: GenClass
    index: int
    part: int = 0


@dataclasses.dataclass(frozen=True)
class Move:
    kind: MoveKind
    cls: GenClass
    index: int
    index2: int | None = None  # PERMUTE partner
    amount: int = 0  # TWIST amount, or SLIDE multiplier
    source: GenRef | None = None  # SLIDE source generator


def _class_values(state: State, cls: GenClass):
    return getattr(state, cls.field)


def _class_len(state: State, cls: GenClass) -> int:
    return len(_class_values(state, cls))


def _check_index(state: State, cls: GenClass, index, what: str) -> None:
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"{what} must be an integer index, got {index!r}")
    if not 0 <= index < _class_len(state, cls):
        raise ValueError(
            f"{what} {index} out of range for class {cls.field!r} "
            f"of length {_class_len(state, cls)}"
        )


def _check_amount(amount, bound: int, what: str) -> None:
    """A twist amount or slide multiplier must be an int in [0, bound), as
    :func:`inverse_move` makes them."""
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise ValueError(f"{what} must be an integer, got {amount!r}")
    if not 0 <= amount < bound:
        raise ValueError(f"{what} must lie in [0, {bound}), got {amount}")


def _ref_value(state: State, ref: GenRef) -> int:
    _check_index(state, ref.cls, ref.index, "slide source index")
    entry = _class_values(state, ref.cls)[ref.index]
    if ref.cls.paired:
        if ref.part not in (0, 1):
            raise ValueError(f"pair slot must be 0 or 1, got {ref.part}")
        return entry[ref.part]
    if ref.part != 0:
        raise ValueError(f"class {ref.cls.field!r} has no pair slot {ref.part}")
    return entry


def _replace(state: State, cls: GenClass, values) -> State:
    return state._replace(**{cls.field: tuple(values)})


def apply_move(p: int, state: State, move: Move) -> State:
    """Apply one move to a state; validity is preserved.

    The images may be numpy arrays that broadcast against each other: the
    move is elementwise arithmetic mod p^2 on the images it changes, so the
    result holds, element by element, the move applied to every
    combination.  Images the move neither reads nor writes are passed
    through as the same objects and may be anything, ``None`` included.
    The orbit engine builds its gather tables this way.

    Raises ValueError for out-of-range indices, malformed amounts (a twist
    amount or slide multiplier that is no int, a bool included, or lies
    outside [0, p^2), [0, p) for an ef twist), or a slide sourced from the
    target's own factor.
    """
    q = p * p
    _check_index(state, move.cls, move.index, "move index")
    values = list(_class_values(state, move.cls))

    if move.kind is MoveKind.PERMUTE:
        _check_index(state, move.cls, move.index2, "move partner index")
        if move.index2 == move.index:
            raise ValueError("interchange needs two distinct indices")
        i, j = move.index, move.index2
        values[i], values[j] = values[j], values[i]
        return _replace(state, move.cls, values)

    if move.kind is MoveKind.SPIN:
        entry = values[move.index]
        if move.cls.paired:
            values[move.index] = ((-entry[0]) % q, (-entry[1]) % q)
        else:
            values[move.index] = (-entry) % q
        return _replace(state, move.cls, values)

    if move.kind is MoveKind.TWIST:
        if not move.cls.paired:
            raise ValueError(f"twist acts on paired classes, not {move.cls.field!r}")
        bound = q if move.cls is GenClass.BC else p
        _check_amount(move.amount, bound, f"twist amount for class {move.cls.field!r}")
        finite, free = values[move.index]
        values[move.index] = (finite, (free + move.amount * finite) % q)
        return _replace(state, move.cls, values)

    if move.kind is MoveKind.SLIDE:
        if move.cls is not GenClass.A:
            raise ValueError("slides target free-handle images only")
        if move.source is None:
            raise ValueError("slide needs a source generator")
        if move.source.cls is GenClass.A and move.source.index == move.index:
            raise ValueError(
                f"slide of a_{move.index} over its own factor is not a move"
            )
        _check_amount(move.amount, q, "slide multiplier")
        src = _ref_value(state, move.source)
        values[move.index] = (values[move.index] + move.amount * src) % q
        return _replace(state, move.cls, values)

    raise ValueError(f"unknown move kind {move.kind!r}")


def inverse_move(p: int, move: Move) -> Move:
    """The alphabet move undoing ``move`` at the image level.

    Interchanges and spins are involutions; a twist inverts by the
    complementary amount; a slide inverts by the negated multiplier.
    """
    q = p * p
    if move.kind in (MoveKind.PERMUTE, MoveKind.SPIN):
        return move
    if move.kind is MoveKind.TWIST:
        bound = q if move.cls is GenClass.BC else p
    elif move.kind is MoveKind.SLIDE:
        bound = q
    else:
        raise ValueError(f"unknown move kind {move.kind!r}")
    amount = (-move.amount) % bound
    return Move(move.kind, move.cls, move.index, index2=move.index2, amount=amount, source=move.source)


def slide_sources(v: Shape, target_index: int) -> list[GenRef]:
    """Every single generator of a factor other than the target handle's,
    for a checked shape ``v``."""
    return [
        GenRef(cls, j, part)
        for cls, kinds, length in zip(GenClass, LAYOUT, v)
        for j in range(length)
        if (cls, j) != (GenClass.A, target_index)
        for part in range(len(kinds))
    ]


def generator_moves(p: int, v: Shape) -> list[Move]:
    """A finite generating set whose closure matches the full alphabet's,
    for a checked shape ``v``.

    Adjacent interchanges generate all permutations, unit twists generate
    all twist amounts, and unit slides generate all multipliers, so orbits
    under this set equal orbits under the full alphabet of every
    interchange, spin, twist amount and slide multiplier (the tests build it
    as ``oracles.full_move_alphabet``).
    """
    r, s, _, m, _ = v
    moves = []
    for cls, length in zip(GenClass, v):
        for i in range(length - 1):
            moves.append(Move(MoveKind.PERMUTE, cls, i, index2=i + 1))
    for cls, length in zip(GenClass, v):
        for i in range(length):
            moves.append(Move(MoveKind.SPIN, cls, i))
    for i in range(s):
        moves.append(Move(MoveKind.TWIST, GenClass.BC, i, amount=1))
    for i in range(m):
        moves.append(Move(MoveKind.TWIST, GenClass.EF, i, amount=1))
    for i in range(r):
        for src in slide_sources(v, i):
            moves.append(Move(MoveKind.SLIDE, GenClass.A, i, amount=1, source=src))
    return moves

