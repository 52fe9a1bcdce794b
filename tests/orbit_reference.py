"""Reference pieces for the orbit engine's tests.

The engine gathers labels through each move with a table over the few
columns the move touches; gathering ``arange(raw)`` that way gives the
move's successor array.  Earlier engines decoded every raw index into a
matrix of image values and stepped each row through per-column lookup
tables; that construction is kept here, row by row and chunk by chunk, as
the reference those successor arrays must equal.  The engine builds its
tables through :func:`apply_move` over the ``states`` layout; this module
has its own copy of the image-level move updates and its own column map,
so a slip in either of those shows.

Also here: the small p=3 shapes the exhaustive sweeps run over, and two
deliberately broken versions of :func:`apply_move` for the closure check's
negative tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from handlebody_census.tuples import Tuple5
from handlebody_census.verification.states import raw_state_count
from handlebody_census.verification.moves import PAIRED, GenClass, GenRef, Move, MoveKind

#: Rows per decode or successor step; bounds the int64 temporaries.
CHUNK = 1 << 16


def small_p3_shapes(limit=10**5) -> list[Tuple5]:
    """Every p=3 shape whose raw state space has at most ``limit`` states."""
    shapes = []
    for r, s, t, m, n in itertools.product(range(6), range(3), range(7), range(4), range(17)):
        try:
            v = Tuple5(r, s, t, m, n)
        except ValueError:
            continue
        if raw_state_count(3, v) <= limit:
            shapes.append(v)
    return shapes


#: Columns per entry of each class, in the flat order a, bc, d, ef, g.
CLASS_WIDTHS = [(GenClass.A, 1), (GenClass.BC, 2), (GenClass.D, 1), (GenClass.EF, 2), (GenClass.G, 1)]


def entry_cols(v: Tuple5, cls: GenClass, index: int) -> list[int]:
    """The flat columns of entry ``index`` of class ``cls`` in shape ``v``."""
    base = 0
    for (c, width), length in zip(CLASS_WIDTHS, v):
        if c is cls:
            return list(range(base + width * index, base + width * (index + 1)))
        base += width * length


def ref_col(v: Tuple5, ref: GenRef) -> int:
    """The flat column of one generator."""
    return entry_cols(v, ref.cls, ref.index)[ref.part]


def decode(space, rows: np.ndarray) -> np.ndarray:
    """Image values (len(rows) x ncols) of the given raw indices."""
    out = np.empty((len(rows), space.ncols), dtype=np.int64)
    rem = np.asarray(rows, dtype=np.int64).copy()
    for c in range(space.ncols - 1, -1, -1):
        k = int(space.sizes[c])
        out[:, c] = space.dom_arrays[c][rem % k]
        rem //= k
    return out


def digits(space) -> tuple[np.ndarray, np.ndarray]:
    """Image values of every raw index, and which raw indices are valid."""
    dig = np.empty((space.raw, space.ncols), dtype=np.int64)
    valid = np.ones(space.raw, dtype=bool)
    need_unit = space.v.s == 0 and space.v.t == 0
    for start in range(0, space.raw, CHUNK):
        stop = min(start + CHUNK, space.raw)
        dig[start:stop] = decode(space, np.arange(start, stop, dtype=np.int64))
        if need_unit:
            valid[start:stop] = ((dig[start:stop] % space.p) != 0).any(axis=1)
    return dig, valid


def move_updates(space, dig: np.ndarray, move: Move):
    """New values for the columns a move changes, one per row of ``dig``."""
    q, v = space.q, space.v
    if move.kind is MoveKind.PERMUTE:
        ci = entry_cols(v, move.cls, move.index)
        cj = entry_cols(v, move.cls, move.index2)
        out = []
        for a, b in zip(ci, cj):
            out.append((a, dig[:, b]))
            out.append((b, dig[:, a]))
        return out
    if move.kind is MoveKind.SPIN:
        return [(c, (q - dig[:, c]) % q) for c in entry_cols(v, move.cls, move.index)]
    if move.kind is MoveKind.TWIST:
        finite, free = entry_cols(v, move.cls, move.index)
        return [(free, (dig[:, free] + move.amount * dig[:, finite]) % q)]
    if move.kind is MoveKind.SLIDE:
        (target,) = entry_cols(v, GenClass.A, move.index)
        src = ref_col(v, move.source)
        return [(target, (dig[:, target] + move.amount * dig[:, src]) % q)]
    raise ValueError(f"unknown move kind {move.kind!r}")


def successor_rows(space, dig: np.ndarray, rows: np.ndarray, move: Move) -> np.ndarray:
    """Raw successor index per row, via per-column position deltas."""
    out = np.asarray(rows, dtype=np.int64).copy()
    for col, new_values in move_updates(space, dig, move):
        new_pos = space.luts[col, new_values]
        if (new_pos < 0).any():
            raise AssertionError(f"move {move} left the per-generator domain on column {col}")
        old_pos = space.luts[col, dig[:, col]]
        out += (new_pos - old_pos) * int(space.strides[col])
    return out


def successor_arrays(space, moves) -> list[np.ndarray]:
    """One raw successor-index array per move, int32 when the raw space fits."""
    dig, _ = digits(space)
    dtype = np.int32 if space.raw <= np.iinfo(np.int32).max else np.int64
    arrays = []
    for move in moves:
        out = np.empty(space.raw, dtype=dtype)
        for lo in range(0, space.raw, CHUNK):
            hi = min(lo + CHUNK, space.raw)
            rows = np.arange(lo, hi, dtype=np.int64)
            out[lo:hi] = successor_rows(space, dig[lo:hi], rows, move)
        arrays.append(out)
    return arrays


def _zero_the_spun_entry(state, move: Move):
    """``state`` with the entry ``move`` spins set to 0, image by image."""
    entries = list(getattr(state, move.cls.value))
    entry = entries[move.index]
    entries[move.index] = tuple(x * 0 for x in entry) if move.cls in PAIRED else entry * 0
    return state._replace(**{move.cls.value: tuple(entries)})


def spins_leave_the_domain(exact):
    """``exact`` (an ``apply_move``), except that spins write 0 to every
    image they change."""

    def apply(p, state, move):
        out = exact(p, state, move)
        if move.kind is MoveKind.SPIN:
            out = _zero_the_spun_entry(out, move)
        return out

    return apply


def spins_zero_the_free_handles(exact):
    """``exact`` (an ``apply_move``), except that a spin of a free handle
    writes 0, which stays in the handle's domain but is not a unit."""

    def apply(p, state, move):
        out = exact(p, state, move)
        if move.kind is MoveKind.SPIN and move.cls is GenClass.A:
            out = _zero_the_spun_entry(out, move)
        return out

    return apply
