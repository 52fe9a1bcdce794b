"""Reference pieces for the orbit engine's tests.

The engine runs on the coset quotient of a shape's state space: each
image reduced mod the k whose multiples the alphabet can add to it.  It
gathers labels through each move with a table over the few columns the
move touches; gathering ``arange`` of the quotient's size that way gives
the move's successor array.  Earlier engines decoded every index into a
matrix of image values and stepped each row through per-column lookup
tables; that construction is kept here, row by row and chunk by chunk, as
the reference those successor arrays must equal.  The engine builds its
tables through :func:`apply_move` over the ``states`` layout and reduces
through its own lookup tables; this module has its own copy of the
image-level move updates, its own column map, its own moduli and its own
place values, and it looks representatives up in the engine's domains by
value, so a slip in any of those shows.

Also here: the small p=3 shapes the exhaustive sweeps run over, and two
deliberately broken versions of :func:`apply_move` for the closure check's
negative tests.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from handlebody_census.tuples import Tuple5
from handlebody_census.verification.states import raw_state_count
from handlebody_census.verification.moves import GenClass, GenRef, Move, MoveKind

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


def moduli(p: int, v: Tuple5) -> list[int]:
    """Per flat column, the modulus its image is reduced by on the quotient.

    c goes to 0 (the unit b twists it through everything), f mod p (e
    twists it through pZ/p^2), a handle to 0 beside a b or d, mod p beside
    only e or g images and whole in a handle-only shape; b, d, e and g stay
    whole.
    """
    q = p * p
    _, s, t, m, n = v
    handle = 1 if s + t else p if m + n else q
    per_entry = {GenClass.A: [handle], GenClass.BC: [q, 1], GenClass.D: [q], GenClass.EF: [q, p], GenClass.G: [q]}
    return [k for (cls, _), length in zip(CLASS_WIDTHS, v) for k in per_entry[cls] * length]


def reduce(p: int, v: Tuple5, images) -> list[int]:
    """Flat images reduced to their coset's least member."""
    return [x % k for x, k in zip(images, moduli(p, v))]


def decode(doms, rows: np.ndarray) -> np.ndarray:
    """Image values (len(rows) x len(doms)) of the given indices of the
    mixed-radix index over ``doms``, last coordinate fastest."""
    out = np.empty((len(rows), len(doms)), dtype=np.int64)
    rem = np.asarray(rows, dtype=np.int64).copy()
    for c in range(len(doms) - 1, -1, -1):
        out[:, c] = doms[c][rem % len(doms[c])]
        rem //= len(doms[c])
    return out


def digits(p: int, v: Tuple5, doms) -> tuple[np.ndarray, np.ndarray]:
    """Image values of every index over ``doms`` (the engine's
    representatives, or the raw domains), and which are valid states."""
    size = int(np.prod([len(dom) for dom in doms]))
    dig = np.empty((size, len(doms)), dtype=np.int64)
    valid = np.ones(size, dtype=bool)
    need_unit = v.s == 0 and v.t == 0
    for start in range(0, size, CHUNK):
        stop = min(start + CHUNK, size)
        dig[start:stop] = decode(doms, np.arange(start, stop, dtype=np.int64))
        if need_unit:
            valid[start:stop] = ((dig[start:stop] % p) != 0).any(axis=1)
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
    """Successor row per row, via per-column position deltas: each new
    image reduced by :func:`moduli` and looked up in the engine's
    representatives by value, and weighted by the column's own place
    value, the product of the representative counts after it."""
    out = np.asarray(rows, dtype=np.int64).copy()
    col_moduli = moduli(space.p, space.v)
    counts = [len(dom) for dom in space.dom_arrays]
    for col, new_values in move_updates(space, dig, move):
        reps = space.dom_arrays[col]
        reduced = new_values % col_moduli[col]
        new_pos = np.searchsorted(reps, reduced)
        if (reps[np.minimum(new_pos, len(reps) - 1)] != reduced).any():
            raise AssertionError(f"move {move} left the per-generator domain on column {col}")
        old_pos = np.searchsorted(reps, dig[:, col])
        out += (new_pos - old_pos) * math.prod(counts[col + 1 :])
    return out


def successor_arrays(space, moves) -> list[np.ndarray]:
    """One successor-row array per move, int32 when the quotient fits."""
    dig, _ = digits(space.p, space.v, space.dom_arrays)
    dtype = np.int32 if space.size <= np.iinfo(np.int32).max else np.int64
    arrays = []
    for move in moves:
        out = np.empty(space.size, dtype=dtype)
        for lo in range(0, space.size, CHUNK):
            hi = min(lo + CHUNK, space.size)
            rows = np.arange(lo, hi, dtype=np.int64)
            out[lo:hi] = successor_rows(space, dig[lo:hi], rows, move)
        arrays.append(out)
    return arrays


def _zero_the_spun_entry(state, move: Move):
    """``state`` with the entry ``move`` spins set to 0, image by image."""
    entries = list(getattr(state, move.cls.value))
    entry = entries[move.index]
    entries[move.index] = tuple(x * 0 for x in entry) if move.cls.paired else entry * 0
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
