"""Exhaustive orbit counting under the move alphabet.

One engine computes the partition: min-label union-find (Shiloach and
Vishkin, J. Algorithms 1982) over the raw mixed-radix index of a shape's
state space.  Every generator move and its inverse is applied to the whole
space at once (numpy), then scatter-min hooking and pointer jumping run to
a fixpoint that labels each component by its smallest raw index.

The engine runs over every raw index, valid or not.  Moves preserve
validity, so invalid states form components of their own; a component that
mixes the two raises, and the labels of valid states are mapped to their
rank among valid states.  State order is lexicographic on image vectors,
so a label is the least valid-state index of its orbit.

Breadth-first search over :func:`apply_move` computes the same labels from
individual states; it lives in the tests as the reference this engine is
checked against.  ``workers`` only splits successor computation across
threads, which shortens large runs on more than one core; the merge is a
pure min fixpoint, so labels do not depend on the worker count.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import ClassVar

import numpy as np

from ..errors import BudgetExceededError
from ..theorem_counts import count_for_tuple
from ..tuples import Tuple5, CaseTag, classify, genus_of, require_odd_prime
from .canonical import DEFAULT_STATE_BUDGET, enumerate_canonical
from .moves import (
    GenClass,
    Move,
    MoveKind,
    full_move_alphabet,
    generator_moves,
    inverse_move,
)
from .states import (
    State,
    coordinate_domains,
    flatten,
    raw_state_count,
)

#: Rows per decode or successor step; bounds the int64 temporaries.
_CHUNK = 1 << 16


class _Space:
    """Vectorized view of one shape's state space.

    States are rows of a mixed-radix index (last coordinate fastest), so
    row order is lexicographic on image vectors and matches both
    :func:`iter_valid_states` and the fixed-radix encoding.
    """

    def __init__(self, p: int, v: Tuple5):
        self.p, self.q, self.v = p, p * p, v
        doms = coordinate_domains(p, v)
        self.doms = doms
        self.ncols = len(doms)
        r, s, t, m, n = v.as_tuple()
        self.a_cols = list(range(r))
        self.b_cols = [r + 2 * i for i in range(s)]
        self.c_cols = [r + 2 * i + 1 for i in range(s)]
        base = r + 2 * s
        self.d_cols = [base + i for i in range(t)]
        base += t
        self.e_cols = [base + 2 * i for i in range(m)]
        self.f_cols = [base + 2 * i + 1 for i in range(m)]
        base += 2 * m
        self.g_cols = [base + i for i in range(n)]

        sizes = [len(dom) for dom in doms]
        strides = np.ones(self.ncols, dtype=np.int64)
        for c in range(self.ncols - 2, -1, -1):
            strides[c] = strides[c + 1] * sizes[c + 1]
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.strides = strides
        self.raw = int(strides[0] * sizes[0])
        # value -> in-domain position, -1 outside the domain
        self.luts = np.full((self.ncols, self.q), -1, dtype=np.int64)
        for c, dom in enumerate(doms):
            self.luts[c, list(dom)] = np.arange(len(dom))
        self.dom_arrays = [np.asarray(dom, dtype=np.int64) for dom in doms]

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Image values (len(rows) x ncols) of the given raw indices."""
        out = np.empty((len(rows), self.ncols), dtype=np.int64)
        rem = rows.copy()
        for c in range(self.ncols - 1, -1, -1):
            k = int(self.sizes[c])
            out[:, c] = self.dom_arrays[c][rem % k]
            rem //= k
        return out

    def digits(self) -> tuple[np.ndarray, np.ndarray]:
        """Image values of every raw index, and which raw indices are valid.

        The domains already enforce the order constraints, so validity is
        surjectivity alone; with s+t > 0 every raw index is valid.
        """
        dig = np.empty((self.raw, self.ncols), dtype=np.int64)
        valid = np.ones(self.raw, dtype=bool)
        need_unit = self.v.s == 0 and self.v.t == 0
        for start in range(0, self.raw, _CHUNK):
            stop = min(start + _CHUNK, self.raw)
            dig[start:stop] = self.decode(np.arange(start, stop, dtype=np.int64))
            if need_unit:
                valid[start:stop] = ((dig[start:stop] % self.p) != 0).any(axis=1)
        return dig, valid

    def entry_cols(self, cls: GenClass, index: int) -> list[int]:
        if cls is GenClass.A:
            return [self.a_cols[index]]
        if cls is GenClass.BC:
            return [self.b_cols[index], self.c_cols[index]]
        if cls is GenClass.D:
            return [self.d_cols[index]]
        if cls is GenClass.EF:
            return [self.e_cols[index], self.f_cols[index]]
        return [self.g_cols[index]]

    def ref_col(self, ref) -> int:
        cols = self.entry_cols(ref.cls, ref.index)
        return cols[ref.part] if len(cols) == 2 else cols[0]

    def state_row(self, state: State) -> int:
        """Raw index of one state; -1 if any image leaves its domain."""
        row = 0
        for c, x in enumerate(flatten(state)):
            pos = int(self.luts[c, x]) if 0 <= x < self.q else -1
            if pos < 0:
                return -1
            row += pos * int(self.strides[c])
        return row


def _move_updates(space: _Space, dig: np.ndarray, move: Move):
    """New values for the columns a move changes, as (column, values) pairs."""
    q = space.q
    if move.kind is MoveKind.PERMUTE:
        ci = space.entry_cols(move.cls, move.index)
        cj = space.entry_cols(move.cls, move.index2)
        out = []
        for a, b in zip(ci, cj):
            out.append((a, dig[:, b]))
            out.append((b, dig[:, a]))
        return out
    if move.kind is MoveKind.SPIN:
        if move.sign == 1:
            return []
        return [(c, (q - dig[:, c]) % q) for c in space.entry_cols(move.cls, move.index)]
    if move.kind is MoveKind.TWIST:
        finite, free = space.entry_cols(move.cls, move.index)
        return [(free, (dig[:, free] + move.amount * dig[:, finite]) % q)]
    if move.kind is MoveKind.SLIDE:
        (target,) = space.entry_cols(GenClass.A, move.index)
        src = space.ref_col(move.source)
        return [(target, (dig[:, target] + move.amount * dig[:, src]) % q)]
    raise ValueError(f"unknown move kind {move.kind!r}")


def _successor_rows(space: _Space, dig, rows, move: Move) -> np.ndarray:
    """Raw successor index per state, via per-column position deltas."""
    out = rows.copy()
    for col, new_values in _move_updates(space, dig, move):
        new_pos = space.luts[col, new_values]
        if (new_pos < 0).any():
            raise AssertionError(
                f"move {move} left the per-generator domain on column {col}"
            )
        old_pos = space.luts[col, dig[:, col]]
        out += (new_pos - old_pos) * int(space.strides[col])
    return out


def _index_dtype(raw: int):
    """int32 when every raw index fits, halving the engine's index arrays."""
    return np.int32 if raw <= np.iinfo(np.int32).max else np.int64


def _successor_arrays(space: _Space, dig: np.ndarray, moves, workers: int) -> list[np.ndarray]:
    """One raw successor-index array per move, filled chunk by chunk.

    Chunks write disjoint slices and their values do not depend on which
    thread computes them, so any worker count yields identical arrays.
    """
    raw = space.raw
    dtype = _index_dtype(raw)
    arrays = [np.empty(raw, dtype=dtype) for _ in moves]

    def fill(k: int, lo: int) -> None:
        hi = min(lo + _CHUNK, raw)
        rows = np.arange(lo, hi, dtype=np.int64)
        arrays[k][lo:hi] = _successor_rows(space, dig[lo:hi], rows, moves[k])

    tasks = [(k, lo) for k in range(len(moves)) for lo in range(0, raw, _CHUNK)]
    if workers <= 1:
        for task in tasks:
            fill(*task)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(fill, *task) for task in tasks]:
                future.result()
    return arrays


def _min_label_components(n: int, succ_arrays) -> np.ndarray:
    """Orbit labels as the least state index per component.

    Iterate scatter-min over every successor array, then chase labels
    through themselves (pointer jumping) until nothing changes.  Labels are
    always indices of smaller states in the same component, so the fixpoint
    assigns every state its component's minimum; min is order-independent,
    which is what makes the result deterministic.
    """
    labels = np.arange(n, dtype=_index_dtype(n))
    if n == 0:
        return labels
    while True:
        before = labels
        cur = labels
        for succ in succ_arrays:
            cur = np.minimum(cur, cur[succ])
        while True:
            jumped = cur[cur]
            if np.array_equal(jumped, cur):
                break
            cur = jumped
        if np.array_equal(cur, before):
            return cur
        labels = cur


def _moves_with_inverses(p: int, v: Tuple5) -> list[Move]:
    moves = generator_moves(p, v)
    seen = set(moves)
    for move in list(moves):
        inv = inverse_move(p, move)
        if inv not in seen:
            moves.append(inv)
            seen.add(inv)
    return moves


@dataclasses.dataclass
class Partition:
    """Orbit labels for every valid state of one shape.

    ``labels[i]`` is the least state index in the orbit of state i; state
    order is lexicographic on image vectors.
    """

    #: The engine that computed the labels; there is only one.
    method: ClassVar[str] = "union-find"

    p: int
    v: Tuple5
    raw: int
    labels: np.ndarray
    _space: _Space
    _rank: np.ndarray  # raw index -> valid-state index, -1 for invalid

    @property
    def valid_count(self) -> int:
        return len(self.labels)

    @property
    def orbit_count(self) -> int:
        return len(np.unique(self.labels)) if self.valid_count else 0

    def orbit_sizes(self) -> np.ndarray:
        return np.unique(self.labels, return_counts=True)[1]

    @property
    def largest_orbit(self) -> int:
        return int(self.orbit_sizes().max()) if self.valid_count else 0

    def state_index(self, state: State) -> int:
        """Position of a valid state in the space's lexicographic order."""
        row = self._space.state_row(state)
        if row >= 0 and self._rank[row] >= 0:
            return int(self._rank[row])
        raise KeyError(f"state {state} is not a valid state of shape {self.v}")


def _check_budget(p: int, v: Tuple5, budget: int) -> int:
    raw = raw_state_count(p, v)
    if raw > budget:
        raise BudgetExceededError(
            f"shape {v} at p={p} has a raw state space of {raw} states, "
            f"over the budget of {budget}",
            required=raw,
            budget=budget,
        )
    return raw


def orbit_partition(
    p: int,
    v: Tuple5,
    budget: int = DEFAULT_STATE_BUDGET,
    workers: int = 1,
) -> Partition:
    """Partition the valid states of a shape into move orbits.

    ``workers`` threads share the successor computation; the labels are the
    same for any worker count.  Admissibility is not required: any
    well-formed shape has a state space.  Raises
    :class:`BudgetExceededError` when the raw space is over ``budget``, and
    :class:`AssertionError` when an orbit holds both valid and invalid
    states, which would mean a move left the valid state space.
    """
    require_odd_prime(p)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    raw = _check_budget(p, v, budget)
    space = _Space(p, v)
    dig, valid = space.digits()
    succ = _successor_arrays(space, dig, _moves_with_inverses(p, v), workers)
    del dig  # each phase's arrays go before the next allocates, bounding peak RSS
    labels = _min_label_components(raw, succ)
    del succ
    if not np.array_equal(valid[labels], valid):
        raise AssertionError(
            f"an orbit of shape {v} at p={p} mixes valid and invalid states"
        )
    rank = np.cumsum(valid, dtype=labels.dtype) - 1
    rank[~valid] = -1
    return Partition(
        p=p, v=v, raw=raw, labels=rank[labels[valid]], _space=space, _rank=rank
    )


@dataclasses.dataclass(frozen=True)
class OrbitStats:
    """Orbit census of one shape: counts plus space statistics."""

    orbits: int
    state_space_size: int  # raw size, before the surjectivity filter
    valid_states: int
    largest_orbit: int


def orbit_count(
    p: int,
    v: Tuple5,
    budget: int = DEFAULT_STATE_BUDGET,
    workers: int = 1,
) -> OrbitStats:
    """Count move orbits of the valid states; see :func:`orbit_partition`."""
    part = orbit_partition(p, v, budget=budget, workers=workers)
    return OrbitStats(
        orbits=part.orbit_count,
        state_space_size=part.raw,
        valid_states=part.valid_count,
        largest_orbit=part.largest_orbit,
    )


def check_move_closure(p: int, v: Tuple5, budget: int = DEFAULT_STATE_BUDGET) -> int:
    """Assert every alphabet move maps every valid state into the valid set.

    Vectorized sweep over the full alphabet.  Domain membership is checked
    per changed column, and surjectivity by bookkeeping the number of unit
    images.  Returns the number of (state, move) pairs checked.
    """
    require_odd_prime(p)
    _check_budget(p, v, budget)
    space = _Space(p, v)
    dig, valid = space.digits()
    dig = dig[valid]
    always_surjective = v.s + v.t > 0
    unit_counts = ((dig % p) != 0).sum(axis=1)
    checked = 0
    for move in full_move_alphabet(p, v):
        updates = _move_updates(space, dig, move)
        new_units = unit_counts.copy()
        for col, new_values in updates:
            if (space.luts[col, new_values] < 0).any():
                raise AssertionError(
                    f"move {move} left the domain of column {col} for shape {v}"
                )
            new_units += (new_values % p != 0).astype(np.int64)
            new_units -= (dig[:, col] % p != 0).astype(np.int64)
        if not always_surjective and (new_units == 0).any():
            raise AssertionError(f"move {move} broke surjectivity for shape {v}")
        checked += len(dig)
    return checked


@dataclasses.dataclass
class Comparison:
    """Three-way record for one shape: formula, normal forms, orbits.

    ``agreement`` holds pairwise equality booleans (None where a side is
    missing); ``complete`` is False when a budget stopped a computation,
    with the reasons in ``errors``.  Disagreement is a finding, never an
    exception.
    """

    p: int
    tuple: Tuple5
    case: CaseTag
    theorem_count: int
    canonical_count: int | None
    orbit_count: int | None
    state_space_size: int
    valid_states: int | None
    largest_orbit: int | None
    agreement: dict[str, bool | None]
    complete: bool
    errors: list[str]


def compare(
    p: int,
    v: Tuple5,
    budget: int = DEFAULT_STATE_BUDGET,
    workers: int = 1,
) -> Comparison:
    """Compare the formula count, normal-form count, and orbit count."""
    require_odd_prime(p)
    genus_of(p, v)
    theorem = count_for_tuple(p, v)
    errors: list[str] = []

    canonical: int | None
    try:
        canonical = len(enumerate_canonical(p, v, budget=budget))
    except BudgetExceededError as exc:
        canonical = None
        errors.append(f"canonical: {exc}")

    orbits: int | None
    valid: int | None
    largest: int | None
    try:
        part = orbit_partition(p, v, budget=budget, workers=workers)
        orbits, valid, largest = part.orbit_count, part.valid_count, part.largest_orbit
    except BudgetExceededError as exc:
        orbits = valid = largest = None
        errors.append(f"orbits: {exc}")

    agreement = {
        "theorem_vs_canonical": None if canonical is None else theorem == canonical,
        "theorem_vs_orbit": None if orbits is None else theorem == orbits,
        "canonical_vs_orbit": (
            None if canonical is None or orbits is None else canonical == orbits
        ),
    }
    return Comparison(
        p=p,
        tuple=v,
        case=classify(v),
        theorem_count=theorem,
        canonical_count=canonical,
        orbit_count=orbits,
        state_space_size=raw_state_count(p, v),
        valid_states=valid,
        largest_orbit=largest,
        agreement=agreement,
        complete=not errors,
        errors=errors,
    )
