"""Exhaustive orbit counting under the move alphabet.

One engine computes the partition: min-label union-find (Shiloach and
Vishkin, J. Algorithms 1982) over the raw mixed-radix index of a shape's
state space.  The raw space is the full product of the per-coordinate
domains, and a move reads and writes at most four coordinates, so its
successor array is the raw index plus a small table over those
coordinates, broadcast over the rest.  The table is built by applying the
move to the domain values of its coordinates, which also checks that no
image leaves its domain.  Validity (surjectivity) is broadcast the same
way, as the OR of per-coordinate unit masks.  Scatter-min hooking and
pointer jumping then run to a fixpoint that labels each component by its
smallest raw index.

The moves are the generating set and its inverses, except that each unit
twist is replaced by the twist amounts 1, 2, 4, ... below its order.
Those are alphabet moves too, so the orbits do not change; applied one
after another within a round they take every state to the minimum over
its whole twist cycle, so twist-driven shapes settle in one or two rounds.

The engine runs over every raw index, valid or not.  Moves preserve
validity, so invalid states form components of their own; a component that
mixes the two raises, and the labels of valid states are mapped to their
rank among valid states.  State order is lexicographic on image vectors,
so a label is the least valid-state index of its orbit.

The tests hold a reference for this engine: breadth-first search over
:func:`apply_move`, from individual states, which must reach the same
labels.  ``workers`` threads split the per-move broadcasts, which
shortens large runs on more than one core; each move's array does not
depend on the thread that builds it, and the merge is a pure min fixpoint,
so labels do not depend on the worker count.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from typing import ClassVar

import numpy as np

from ..errors import BudgetExceededError, stop_reason
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


class _Space:
    """Vectorized view of one shape's state space.

    States are rows of a mixed-radix index (last coordinate fastest), so
    row order is lexicographic on image vectors and matches
    :func:`iter_valid_states`.  Indices are int64, so the raw size must
    fit that range; :func:`_check_budget` refuses any that does not.
    """

    def __init__(self, p: int, v: Tuple5):
        self.p, self.q, self.v = p, p * p, v
        doms = coordinate_domains(p, v)
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

    def broadcast(self, table: np.ndarray, cols) -> tuple[list[int], np.ndarray]:
        """A shape for the raw index, and ``table`` reshaped to broadcast over it.

        ``table`` has one axis per column of ``cols`` (ascending), each of
        that column's size or 1.  In the shape each of ``cols`` is its own
        axis and each run of other columns is merged into one, so it has at
        most 2*len(cols)+1 axes however many columns the space has.
        """
        shape, table_shape, run = [], [], 1
        sizes = iter(table.shape)
        for c, size in enumerate(self.sizes.tolist()):
            if c in cols:
                shape += [run, size]
                table_shape += [1, next(sizes, 1)]
                run = 1
            else:
                run *= size
        return shape + [run], table.reshape(table_shape + [1])

    def valid_mask(self) -> np.ndarray:
        """Which raw indices are valid states.

        The domains already enforce the order constraints, so validity is
        surjectivity alone: the OR over columns of each domain's unit mask,
        broadcast.  With s+t > 0 some domain holds units only, so every raw
        index is valid.
        """
        if self.v.s + self.v.t > 0:
            return np.ones(self.raw, dtype=bool)
        valid = np.zeros(self.raw, dtype=bool)
        for c, dom in enumerate(self.dom_arrays):
            shape, units = self.broadcast(dom % self.p != 0, [c])
            view = valid.reshape(shape)
            view |= units
        return valid

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


def _move_cols(space: _Space, move: Move) -> list[int]:
    """The columns a move reads or writes, ascending; at most four."""
    cols = space.entry_cols(move.cls, move.index)
    if move.kind is MoveKind.PERMUTE:
        cols = cols + space.entry_cols(move.cls, move.index2)
    elif move.kind is MoveKind.SLIDE:
        cols = cols + [space.ref_col(move.source)]
    return sorted(cols)


def _move_updates(space: _Space, values: dict, move: Move):
    """New values for the columns a move changes, as (column, values) pairs.

    ``values`` maps each column the move touches to its values; arrays
    that broadcast against each other give results over every combination.
    """
    q = space.q
    if move.kind is MoveKind.PERMUTE:
        ci = space.entry_cols(move.cls, move.index)
        cj = space.entry_cols(move.cls, move.index2)
        out = []
        for a, b in zip(ci, cj):
            out.append((a, values[b]))
            out.append((b, values[a]))
        return out
    if move.kind is MoveKind.SPIN:
        if move.sign == 1:
            return []
        return [(c, (q - values[c]) % q) for c in space.entry_cols(move.cls, move.index)]
    if move.kind is MoveKind.TWIST:
        finite, free = space.entry_cols(move.cls, move.index)
        return [(free, (values[free] + move.amount * values[finite]) % q)]
    if move.kind is MoveKind.SLIDE:
        (target,) = space.entry_cols(GenClass.A, move.index)
        src = space.ref_col(move.source)
        return [(target, (values[target] + move.amount * values[src]) % q)]
    raise ValueError(f"unknown move kind {move.kind!r}")


def _move_table(space: _Space, move: Move):
    """A move on every combination of its columns' domain values.

    Returns the columns, their values as an open grid (one axis per column)
    and the checked (column, new values) updates.  Raises
    :class:`AssertionError` if a new value leaves its column's domain.  The
    raw space is the full product of the domains, so the grid covers every
    state's restriction to these columns.
    """
    cols = _move_cols(space, move)
    grid = np.meshgrid(*(space.dom_arrays[c] for c in cols), indexing="ij", sparse=True)
    values = dict(zip(cols, grid))
    updates = _move_updates(space, values, move)
    for col, new_values in updates:
        if (space.luts[col, new_values] < 0).any():
            raise AssertionError(
                f"move {move} left the per-generator domain on column {col} "
                f"of shape {space.v}"
            )
    return cols, values, updates


def _index_dtype(raw: int):
    """int32 when every raw index fits, halving the engine's index arrays."""
    return np.int32 if raw <= np.iinfo(np.int32).max else np.int64


def _successors(space: _Space, move: Move, rows: np.ndarray) -> np.ndarray:
    """Raw successor index of every raw index under one move.

    ``rows`` is ``arange(raw)`` in the engine's index dtype.  The change of
    index depends only on the columns the move touches, so it is a table
    over them (position deltas times strides), added with broadcasting.
    """
    cols, values, updates = _move_table(space, move)
    delta = np.zeros((), dtype=np.int64)
    for col, new_values in updates:
        delta = delta + (space.luts[col, new_values] - space.luts[col, values[col]]) * space.strides[col]
    shape, delta = space.broadcast(delta, cols)
    out = np.empty(space.raw, dtype=rows.dtype)
    np.add(rows.reshape(shape), delta.astype(rows.dtype), out=out.reshape(shape))
    return out


def _successor_arrays(space: _Space, moves, workers: int) -> list[np.ndarray]:
    """One raw successor-index array per move.

    Each array is built by one thread and its values do not depend on
    which, so any worker count yields identical arrays.
    """
    rows = np.arange(space.raw, dtype=_index_dtype(space.raw))
    if workers <= 1:
        return [_successors(space, move, rows) for move in moves]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda move: _successors(space, move, rows), moves))


def _min_label_components(n: int, succ_arrays) -> tuple[np.ndarray, int]:
    """Orbit labels as the least state index per component, and the rounds.

    Each round scatter-mins over every successor array in turn, then
    chases labels through themselves (pointer jumping) until nothing
    changes; the last round is the one that changes nothing.  Labels are
    always indices of smaller states in the same component, so the fixpoint
    assigns every state its component's minimum; min is order-independent,
    which is what makes the result deterministic.
    """
    labels = np.arange(n, dtype=_index_dtype(n))
    if n == 0:
        return labels, 0
    rounds = 0
    while True:
        rounds += 1
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
            return cur, rounds
        labels = cur


def _engine_moves(p: int, v: Tuple5) -> list[Move]:
    """The generating set with inverses, each unit twist replaced by the
    twist amounts 1, 2, 4, ... below its order (p^2 for bc, p for ef).

    Every twist amount is an alphabet move, so the orbits are those of the
    generating set; applied in turn, the doubled amounts take a state to
    the minimum over its whole twist cycle within one round.
    """
    moves: list[Move] = []
    for move in generator_moves(p, v):
        if move.kind is MoveKind.TWIST:
            order = p * p if move.cls is GenClass.BC else p
            moves += [dataclasses.replace(move, amount=1 << k) for k in range((order - 1).bit_length())]
        else:
            moves += [move, inverse_move(p, move)]
    return list(dict.fromkeys(moves))


@dataclasses.dataclass
class Partition:
    """Orbit labels for every valid state of one shape.

    ``labels[i]`` is the least state index in the orbit of state i; state
    order is lexicographic on image vectors.  ``moves`` is the number of
    moves the engine applied per round and ``rounds`` the number of
    fixpoint rounds, the last of which changed nothing.
    """

    #: The engine that computed the labels; there is only one.
    method: ClassVar[str] = "union-find"

    p: int
    v: Tuple5
    raw: int
    labels: np.ndarray
    moves: int
    rounds: int
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
    """The raw size of a shape's space, once it fits ``budget`` and the int64
    indices of :class:`_Space`."""
    raw = raw_state_count(p, v)
    index_max = int(np.iinfo(np.int64).max)
    if raw > min(budget, index_max):
        limit = f"the budget of {budget}" if raw > budget else f"the int64 index range of {index_max}"
        raise BudgetExceededError(
            f"shape {v} at p={p} has a raw state space of {raw} states, over {limit}",
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
    :class:`AssertionError` when a move leaves a coordinate's domain or an
    orbit holds both valid and invalid states, either of which would mean a
    move left the valid state space.
    """
    require_odd_prime(p)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    raw = _check_budget(p, v, budget)
    space = _Space(p, v)
    valid = space.valid_mask()
    moves = _engine_moves(p, v)
    succ = _successor_arrays(space, moves, workers)
    labels, rounds = _min_label_components(raw, succ)
    del succ  # the successor arrays go before the ranks allocate, bounding peak RSS
    if not np.array_equal(valid[labels], valid):
        raise AssertionError(
            f"an orbit of shape {v} at p={p} mixes valid and invalid states"
        )
    rank = np.cumsum(valid, dtype=labels.dtype) - 1
    rank[~valid] = -1
    return Partition(
        p=p,
        v=v,
        raw=raw,
        labels=rank[labels[valid]],
        moves=len(moves),
        rounds=rounds,
        _space=space,
        _rank=rank,
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
    """Check that every alphabet move maps every valid state into the valid set.

    Each move is applied to every combination of the domain values of the
    columns it touches, which covers every state's restriction to them.
    Domain membership is checked per changed column.  With s+t > 0 every
    state is surjective; otherwise no combination holding a unit may lose
    every unit.  That is exact, because every other column's domain holds a
    non-unit, so some valid state has no unit outside these columns.
    Raises :class:`AssertionError` on a failure; returns the number of
    (valid state, move) pairs covered.
    """
    require_odd_prime(p)
    raw = _check_budget(p, v, budget)
    space = _Space(p, v)
    need_unit = v.s + v.t == 0
    valid = raw
    if need_unit:
        valid -= math.prod(int((dom % p == 0).sum()) for dom in space.dom_arrays)
    alphabet = full_move_alphabet(p, v)
    for move in alphabet:
        cols, values, updates = _move_table(space, move)
        if not need_unit:
            continue
        new_values = {**values, **dict(updates)}
        had_unit = functools.reduce(np.logical_or, [values[c] % p != 0 for c in cols])
        has_unit = functools.reduce(np.logical_or, [new_values[c] % p != 0 for c in cols])
        if (had_unit & ~has_unit).any():
            raise AssertionError(f"move {move} broke surjectivity for shape {v}")
    return valid * len(alphabet)


@dataclasses.dataclass
class Comparison:
    """Three-way record for one shape: formula, normal forms, orbits.

    ``agreement`` holds pairwise equality booleans (None where a side is
    missing); ``complete`` is False when a budget or a failed allocation
    stopped a computation, with the reasons in ``errors``.  Disagreement is
    a finding, never an exception.
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
    except (BudgetExceededError, MemoryError) as exc:
        canonical = None
        errors.append(f"canonical: {stop_reason(exc)}")

    orbits: int | None
    valid: int | None
    largest: int | None
    try:
        part = orbit_partition(p, v, budget=budget, workers=workers)
        orbits, valid, largest = part.orbit_count, part.valid_count, part.largest_orbit
    except (BudgetExceededError, MemoryError) as exc:
        orbits = valid = largest = None
        errors.append(f"orbits: {stop_reason(exc)}")

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
