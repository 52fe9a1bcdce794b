"""Exhaustive orbit counting under the move alphabet.

One engine computes the partition: min-label union-find (Shiloach and
Vishkin, J. Algorithms 1982) over the coset quotient of a shape's state
space.

The quotient.  :func:`.states.coset_moduli` gives each image a k whose
multiples the alphabet can add to it with every other image fixed: a
twist adds any multiple of the unit b to c (k = 1) and of e, which
generates pZ/p^2, to f (k = p); a slide adds any multiple of a unit b or d
to a free handle (k = 1 when s+t > 0), or else of an order-p e or g (k = p
when m+n > 0).  The other images, and the handles of a handle-only shape,
keep k = p^2.  The multiples of each image's k form a subgroup H of the
image vectors, and the engine runs on the cosets x + H, each represented
by its least member: x with every image reduced mod its k.  That is exact:

* a coset lies inside one orbit, since the moves above join its members;
* every move is linear on image vectors and maps H into H, so it maps
  cosets to cosets.  Interchanges and spins permute or negate images of
  equal k; a twist adds a multiple of b or e, which H leaves fixed; a
  slide adds to a handle a multiple of another image, whose k the
  handle's k divides (a c source means s > 0, an f source m > 0);
* validity is constant on a coset.  k is 1 only where s+t > 0, so every
  state is valid; otherwise reducing mod p or p^2 keeps a unit a unit.

So each orbit of the quotient is the set of cosets of one raw orbit.  The
counts agree, every raw orbit holds the same number of raw states per
coset (the fiber, raw size over quotient size), and the least raw state
of an orbit is its least representative, since each image of a
representative is the least of its coset.  So every answer comes from
the quotient: counts are its counts times the fiber, and the least state
of any state's orbit is the least representative of its own
representative's orbit.

The engine.  Representatives are the rows of an index over each image's
representative values in numpy's C order (last coordinate fastest), and a
move reads and writes at most four coordinates, so with the index viewed
as an array with one axis per run of touched columns, a move changes the
positions on those axes only, by a small table over them.  One
constructor, :class:`_Gather`, turns a move into that table: it applies
:func:`apply_move` to a state holding, in the :mod:`.states` layout, the
representative values of the touched coordinates as an open grid, checks
that every image it writes stays in its raw domain, and looks each up as
the position of its own representative.  The moves are
:func:`generator_moves`, each walked forward only: no inverse is built.
A move whose table is the identity, every column it writes keeping its
positions, is dropped: every twist, and every slide that only adds
multiples of its handle's k (onto a handle reduced to 0, from a c, or
from an e or g onto a handle reduced mod p).  Each round gathers the
labels through every other move g with its table,
``labels[x] = min(labels[x], labels[g(x)])`` along the touched axes (one
``np.take`` when they are adjacent, one indexed assignment when they are
not), so no successor array is ever built.  Validity (surjectivity) is
broadcast the same way, as the OR of per-coordinate unit masks.
Min-label hooking and pointer jumping then run to a fixpoint that labels
each component by its smallest row.  Every move is a bijection of the
finite quotient, so the inverses add nothing: at the fixpoint
``labels[x] <= labels[g(x)]`` for every x and g, and around a g-cycle
that chain of inequalities returns to its start, so labels are constant
on each cycle, each edge and each component (see
:func:`_min_label_components`).

The engine runs over every row, valid or not.  Moves preserve validity,
so invalid states form components of their own; a component that mixes
the two raises.  Nothing of raw size is built.

The tests hold a reference for this engine: breadth-first search over
:func:`apply_move`, from individual raw states, whose least state per
component must be :meth:`Partition.least` of every state in it.  That
search shares the move rule with the engine, so the check of the rule,
the layout and the reduction rests on ``tests/orbit_reference.py``, whose
own update rule, column map and moduli must give every move's successor
array.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import ClassVar

import numpy as np

from ..errors import BudgetExceededError, stop_reason
from ..theorem_counts import count_for_tuple
from ..tuples import CaseTag, Shape, Tuple5, genus_of, require_odd_prime, shape_case
from .canonical import DEFAULT_STATE_BUDGET, enumerate_canonical
from .moves import GenClass, Move, MoveKind, apply_move, generator_moves
from .states import (
    State,
    coordinate_domains,
    coset_moduli,
    flatten,
    raw_state_count,
    unflatten,
)


class _Space:
    """Vectorized view of one shape's state space on the coset quotient.

    Each image runs over its representatives: the residues mod its
    :func:`coset_moduli` k that its raw domain (:func:`coordinate_domains`)
    meets, ascending.  They are read off a count of the residues
    (``np.bincount``), not found by ``np.unique``, whose first call in a
    process imports ``numpy.ma``.  Columns with one domain and one k share
    their arrays.  Representative states are the rows of the index over
    the representatives in numpy's C order over ``sizes`` (last coordinate
    fastest), so row order is lexicographic on image vectors, as raw order
    is.  ``luts`` holds per
    column a row mapping every raw value to the position of its
    representative, and to -1 outside the raw domain, so every state read
    through it is reduced.  Nothing here has the raw size, but the raw size
    must still fit int64, and :func:`_check_budget` refuses any that does
    not: orbit sizes are int64 quotient counts times the fiber.  ``v`` is a
    checked shape.
    """

    def __init__(self, p: int, v: Shape):
        self.p, self.q, self.v = p, p * p, v
        moduli = coset_moduli(p, v)
        self.ncols = len(moduli)
        # the state whose images are their own column numbers
        self.columns = unflatten(v, range(self.ncols))
        keys = list(zip(coordinate_domains(p, v), moduli))
        shared = {key: self._representatives(*key) for key in dict.fromkeys(keys)}
        self.dom_arrays = [shared[key][0] for key in keys]
        self.luts = [shared[key][1] for key in keys]
        self.sizes = tuple(len(dom) for dom in self.dom_arrays)
        self.size = math.prod(self.sizes)

    def _representatives(self, dom, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The representatives of one raw domain mod k, and its ``luts`` row."""
        raw = np.asarray(dom, dtype=np.int64)
        reps = np.flatnonzero(np.bincount(raw % k))
        lut = np.full(self.q, -1, dtype=np.int64)
        lut[raw] = np.searchsorted(reps, raw % k)
        return reps, lut

    def layout(self, cols) -> tuple[list[int], list[list[int]]]:
        """The row index's shape with each run of adjacent ``cols`` merged
        into one axis, and those runs.

        ``cols`` is ascending.  Axes alternate between a run of other
        columns (even positions, size 1 where the run is empty) and a run of
        ``cols`` (odd positions), so the shape has at most 2*len(cols)+1
        axes however many columns the space has.
        """
        shape, runs, other = [], [], 1
        for c, size in enumerate(self.sizes):
            if c not in cols:
                other *= size
            elif runs and runs[-1][-1] == c - 1:
                runs[-1].append(c)
                shape[-1] *= size
            else:
                runs.append([c])
                shape += [other, size]
                other = 1
        return shape + [other], runs

    def valid_mask(self) -> np.ndarray:
        """Which rows are valid states.

        The domains already enforce the order constraints, so validity is
        surjectivity alone: the OR over columns of each domain's unit mask,
        broadcast.  With s+t > 0 some domain holds units only, and the OR
        is true on every row.
        """
        valid = np.zeros(self.size, dtype=bool)
        for c, dom in enumerate(self.dom_arrays):
            shape, _ = self.layout([c])
            view = valid.reshape(shape)
            view |= (dom % self.p != 0).reshape(-1, 1)
        return valid

    def state_row(self, state: State) -> int:
        """Row of one state's representative; -1 if the state has another
        shape or nesting, or any image that is no integer (a bool reads as
        its int) or leaves its raw domain."""
        try:
            shaped = tuple(map(len, state)) == tuple(self.v)
            images = [operator.index(x) for x in flatten(state)]
        except TypeError:  # an entry that is no sequence, or no integer
            return -1
        if not shaped or len(images) != self.ncols:
            return -1
        row = 0
        for x, lut, size in zip(images, self.luts, self.sizes):
            pos = int(lut[x]) if 0 <= x < self.q else -1
            if pos < 0:
                return -1
            row = row * size + pos
        return row


def _move_cols(space: _Space, move: Move) -> list[int]:
    """The columns a move reads or writes, ascending; at most four."""

    def entry(cls: GenClass, index: int) -> list[int]:
        cols = getattr(space.columns, cls.field)[index]
        return list(cols) if cls.paired else [cols]

    cols = entry(move.cls, move.index)
    if move.kind is MoveKind.PERMUTE:
        cols += entry(move.cls, move.index2)
    elif move.kind is MoveKind.SLIDE:
        cols.append(entry(move.source.cls, move.source.index)[move.source.part])
    return sorted(cols)


def _axis(array: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``array`` laid along one axis of an open grid of ``ndim`` axes."""
    return array.reshape((1,) * axis + (-1,) + (1,) * (ndim - 1 - axis))


def _index_dtype(size: int):
    """int32 when every index below ``size`` fits, halving the engine's
    index arrays."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


class _Gather:
    """One move as a gather: ``out[x] = src[succ(x)]`` for every row x,
    where ``succ`` is the move's successor on the quotient, with no index
    array of the quotient's size.

    The constructor applies :func:`apply_move` once, to a state holding
    each touched column's representative values along its own axis of an
    open grid (``None`` elsewhere), and looks each written image up as its
    representative's position, raising :class:`AssertionError` if one
    leaves its column's raw domain.  A column the move does not write
    keeps its positions, its representatives' own indices.  The quotient
    is the full product of the representative domains, so the grid covers
    every row's restriction to these columns.  ``identity`` is set when no
    position changes (every twist's table); such a gather builds nothing
    more, and :func:`orbit_partition` drops it.

    The row index is viewed in :meth:`_Space.layout` over the touched
    columns, so ``succ`` changes the positions on the touched axes only.
    When the move touches one run of adjacent columns (spins,
    interchanges, slides from a neighbouring column) the gather is one
    ``np.take`` along that axis.  Otherwise (a slide from a column further
    off) it is one indexed assignment: every touched axis indexed by its
    run's old positions on the left and its new positions on the right,
    every other axis whole; the right side is a short-lived gathered copy
    of ``src``.
    """

    def __init__(self, space: _Space, move: Move):
        cols = _move_cols(space, move)
        coords = [None] * space.ncols
        pos = {}
        for axis, c in enumerate(cols):
            coords[c] = _axis(space.dom_arrays[c], axis, len(cols))
            pos[c] = _axis(np.arange(space.sizes[c]), axis, len(cols))
        moved = flatten(apply_move(space.p, unflatten(space.v, coords), move))
        new_pos = dict(pos)
        for c in cols:
            if moved[c] is coords[c]:
                continue
            new_pos[c] = space.luts[c][moved[c]]
            if (new_pos[c] < 0).any():
                raise AssertionError(
                    f"move {move} left the per-generator domain on column {c} "
                    f"of shape {space.v}"
                )
        self.identity = all(new_pos[c] is pos[c] or (new_pos[c] == pos[c]).all() for c in cols)
        if self.identity:
            return
        shape, runs = space.layout(cols)
        self.shape = tuple(shape)
        touched = list(range(1, len(shape), 2))
        grid = [space.sizes[c] for c in cols]

        def run_table(run, positions):
            table = np.zeros(grid, dtype=np.int64)
            for c in run:
                table = table * space.sizes[c] + positions[c]
            return table.reshape([shape[a] for a in touched])

        if len(runs) == 1:
            self.table, self.old = run_table(runs[0], new_pos), None
            return

        def index(positions):
            axes = [slice(None)] * len(shape)
            for run, a in zip(runs, touched):
                axes[a] = run_table(run, positions)
            return tuple(axes)

        self.old, self.new = index(pos), index(new_pos)

    def apply(self, src: np.ndarray, out: np.ndarray) -> None:
        """Write ``src`` gathered through the move into ``out``; not for an
        ``identity`` gather."""
        view, dest = src.reshape(self.shape), out.reshape(self.shape)
        if self.old is None:
            np.take(view, self.table, axis=1, out=dest, mode="clip")
        else:
            dest[self.old] = view[self.new]


def _min_label_components(n: int, gathers) -> tuple[np.ndarray, int]:
    """Orbit labels as the least row per component, and the rounds.

    Each round takes, gather by gather, the min of the labels and the
    labels gathered through it, then chases labels through themselves
    (pointer jumping) until nothing changes; the last round is the one
    that changes nothing.  Each gather g is a permutation of the rows, and
    its inverse is never applied.  That suffices.  Every step only lowers
    labels, so the loop stops only when no step changed any, that is when
    ``labels[x] <= labels[g(x)]`` for every row x and every gather g.
    Following a g-cycle, ``labels[x] <= labels[g(x)] <= ... <= labels[x]``,
    so labels are constant on each g-cycle, hence on each edge and on each
    component.  A label is always a row of the same component, at most
    its own row: it starts as the row itself, and a min or a chase only
    replaces it by a smaller label of a row in the same component.  So the
    constant on a component is one of its rows and at most each of them:
    its least row.  min is order-independent, which is what makes the
    result deterministic.
    """
    labels = np.arange(n, dtype=_index_dtype(n))
    buf, before = np.empty_like(labels), np.empty_like(labels)
    rounds = 0
    while True:
        rounds += 1
        np.copyto(before, labels)
        for gather in gathers:
            gather.apply(labels, buf)
            np.minimum(labels, buf, out=labels)
        while True:
            np.take(labels, labels, out=buf, mode="clip")
            if np.array_equal(buf, labels):
                break
            labels, buf = buf, labels
        if np.array_equal(labels, before):
            return labels, rounds


@dataclasses.dataclass
class Partition:
    """Move orbits of the valid states of one shape.

    The engine ran on the coset quotient (see the module docstring): the
    ``quotient`` representatives, each standing for ``fiber`` raw states
    of its orbit.  Every count and size is in raw states, and
    :meth:`least` names a state's orbit by its least state, state order
    being lexicographic on image vectors; both are read off the quotient.
    ``moves`` is the number of generators the engine applied per
    round (those that are not the identity on the quotient) and
    ``rounds`` the number of fixpoint rounds, the last of which changed
    nothing.
    """

    #: The engine that computed the partition; there is only one.
    method: ClassVar[str] = "union-find"

    p: int
    v: Tuple5
    raw: int
    quotient: int
    moves: int
    rounds: int
    _space: _Space
    _valid: np.ndarray  # row -> whether the representative is valid
    _least: np.ndarray  # row -> least row of its orbit

    @property
    def fiber(self) -> int:
        """Raw states per representative."""
        return self.raw // self.quotient

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self._valid)) * self.fiber

    @functools.cached_property
    def _sizes(self) -> np.ndarray:
        # a label is its orbit's least member, so the orbits are the valid
        # rows labelled with themselves; one count, with no sort
        roots = self._valid & (self._least == np.arange(self.quotient))
        return np.bincount(self._least[self._valid], minlength=self.quotient)[roots] * self.fiber

    @property
    def orbit_count(self) -> int:
        return len(self._sizes)

    def orbit_sizes(self) -> np.ndarray:
        """Orbit sizes, in the order of their labels."""
        return self._sizes.copy()

    @property
    def largest_orbit(self) -> int:
        return int(self._sizes.max()) if self.valid_count else 0

    def least(self, state: State) -> State:
        """The least state of a valid state's orbit: the least
        representative of its representative's orbit.  Raises
        :class:`KeyError` for anything that is not a valid state of the
        shape."""
        row = self._space.state_row(state)
        if row < 0 or not self._valid[row]:
            raise KeyError(f"state {state} is not a valid state of shape {self.v}")
        positions = np.unravel_index(int(self._least[row]), self._space.sizes)
        images = (int(dom[i]) for dom, i in zip(self._space.dom_arrays, positions))
        return unflatten(self.v, images)


def _check_budget(p: int, v: Shape, budget: int) -> int:
    """The raw size of a checked shape's space, once it fits ``budget`` and
    int64: orbit sizes are int64 quotient counts times the fiber, each at
    most the raw size."""
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
    v: Shape,
    budget: int = DEFAULT_STATE_BUDGET,
) -> Partition:
    """Partition the valid states of a shape into move orbits.

    Admissibility is not required: any well-formed shape has a state space.
    ``v`` is checked as :class:`Tuple5` checks it, so a plain tuple works
    and one with components it rejects raises ``ValueError``.  Raises
    :class:`BudgetExceededError` when the raw space is over ``budget``, and
    :class:`AssertionError` when a move leaves a coordinate's domain or an
    orbit holds both valid and invalid states, either of which would mean a
    move left the valid state space.
    """
    require_odd_prime(p)
    v = Tuple5._make(v)
    raw = _check_budget(p, v, budget)
    space = _Space(p, v)
    valid = space.valid_mask()
    gathers = [_Gather(space, move) for move in generator_moves(p, v)]
    gathers = [gather for gather in gathers if not gather.identity]
    least, rounds = _min_label_components(space.size, gathers)
    if not np.array_equal(valid[least], valid):
        raise AssertionError(
            f"an orbit of shape {v} at p={p} mixes valid and invalid states"
        )
    return Partition(
        p=p,
        v=v,
        raw=raw,
        quotient=space.size,
        moves=len(gathers),
        rounds=rounds,
        _space=space,
        _valid=valid,
        _least=least,
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
    v: Shape,
    budget: int = DEFAULT_STATE_BUDGET,
) -> OrbitStats:
    """Count move orbits of the valid states; see :func:`orbit_partition`."""
    part = orbit_partition(p, v, budget=budget)
    return OrbitStats(
        orbits=part.orbit_count,
        state_space_size=part.raw,
        valid_states=part.valid_count,
        largest_orbit=part.largest_orbit,
    )


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
    v: Shape,
    budget: int = DEFAULT_STATE_BUDGET,
) -> Comparison:
    """Compare the formula count, normal-form count, and orbit count; ``v``
    is checked as in :func:`orbit_partition`."""
    require_odd_prime(p)
    v = Tuple5._make(v)
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
        part = orbit_partition(p, v, budget=budget)
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
        case=shape_case(v),
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
