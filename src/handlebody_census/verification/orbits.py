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
A move the quotient absorbs, one that changes every image it writes by
multiples of that image's k only, is the identity on the quotient and is
never built (:func:`_absorbed`): every twist; every slide whose handle's
k divides every representative of its source, that is onto a handle
reduced to 0 or from an e or g onto a handle reduced mod p; and every
spin and interchange of handles reduced to 0.  A table that still comes
out the identity, every column it writes keeping its positions, would be
dropped; no generator's does.  Each round gathers the labels through
every other move g with its table,
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
import itertools
import math
import operator
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from ..errors import BudgetExceededError, stop_reason
from ..theorem_counts import count_for_tuple
from ..tuples import CaseTag, Shape, Tuple5, genus_of, require_odd_prime, shape_case
from .canonical import DEFAULT_STATE_BUDGET, enumerate_canonical
from .moves import GenClass, Move, MoveKind, apply_move, generator_moves
from .states import (
    LAYOUT,
    State,
    coordinate_domains,
    coset_moduli,
    flatten,
    raw_state_count,
    raw_state_powers,
    unflatten,
)


@functools.lru_cache(maxsize=1)
def _prime_representatives(p: int) -> dict:
    """The representatives and ``luts`` rows of :class:`_Space` columns at
    one prime, by (domain kind, k), filled as shapes first ask for them.

    A prime has at most five entries: free at k = 1, p and p^2, unit and
    order-p at p^2.  Only the last prime's are kept.
    """
    return {}


class _Space:
    """Vectorized view of one shape's state space on the coset quotient.

    Each image runs over its representatives: the residues mod its
    :func:`coset_moduli` k that its raw domain (:func:`coordinate_domains`)
    meets, ascending.  They are read off a count of the residues
    (``np.bincount``), not found by ``np.unique``, whose first call in a
    process imports ``numpy.ma``.  They depend on the column's domain kind
    and k alone, so each (kind, k) is built once per prime and shared,
    read-only, by every column and every shape that has it
    (:func:`_prime_representatives`).  Representative states are the rows
    of the index over the representatives in numpy's C order over
    ``sizes`` (last coordinate fastest), so row order is lexicographic on
    image vectors, as raw order is.  ``luts`` holds per column a row
    mapping every raw value to the position of its
    representative, and to -1 outside the raw domain, so every state read
    through it is reduced.  Nothing here has the raw size, but the raw size
    must still fit int64, and :func:`_check_budget` refuses any that does
    not: orbit sizes are int64 quotient counts times the fiber.  ``v`` is a
    checked shape.
    """

    def __init__(self, p: int, v: Shape):
        self.p, self.q, self.v = p, p * p, v
        self.moduli = coset_moduli(p, v)
        self.ncols = len(self.moduli)
        # the state whose images are their own column numbers
        self.columns = unflatten(v, range(self.ncols))
        kinds = [kind for kinds, length in zip(LAYOUT, v) for _ in range(length) for kind in kinds]
        keys = list(zip(kinds, self.moduli))
        shared = _prime_representatives(p)
        missing = [key for key in dict.fromkeys(keys) if key not in shared]
        if missing:
            domains = dict(zip(keys, coordinate_domains(p, v)))
            shared.update({key: self._representatives(domains[key], key[1]) for key in missing})
        self.dom_arrays = [shared[key][0] for key in keys]
        self.luts = [shared[key][1] for key in keys]
        self.sizes = tuple(len(dom) for dom in self.dom_arrays)
        self.size = math.prod(self.sizes)

    def _representatives(self, dom, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The representatives of one raw domain mod k, and its ``luts`` row,
        both read-only."""
        raw = np.asarray(dom, dtype=np.int64)
        reps = np.flatnonzero(np.bincount(raw % k))
        lut = np.full(self.q, -1, dtype=np.int64)
        lut[raw] = np.searchsorted(reps, raw % k)
        reps.flags.writeable = lut.flags.writeable = False
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
        surjectivity alone: the outer OR over columns of each domain's unit
        mask, in row order.  With s+t > 0 some domain holds units only, and
        the OR is true on every row.
        """
        return functools.reduce(np.logical_or.outer, [dom % self.p != 0 for dom in self.dom_arrays]).reshape(-1)

    def state_row(self, state: State) -> int:
        """Row of one state's representative; -1 if the state has another
        shape or nesting (a pair of a paired class with other than two
        images), or any image that is no integer (a bool reads as its int)
        or leaves its raw domain."""
        try:
            shaped = tuple(map(len, state)) == tuple(self.v) and all(
                len(pair) == 2 for entries, kinds in zip(state, LAYOUT) if len(kinds) > 1 for pair in entries
            )
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


def _absorbed(space: _Space, move: Move) -> bool:
    """Whether the quotient absorbs a generator: every image it writes
    changes by multiples of that image's k only, so it is the identity on
    the quotient.  Decided from the move's kind and classes and the
    handles' k, with no table:

    * every twist: it adds a multiple of b to c (k = 1) or of e to f (k = p);
    * a slide whose handle's k divides every representative of its source:
      k = 1 (the shape has a b or d), or k = p and the source is an e or a
      g, whose representatives are multiples of p;
    * a spin or interchange that writes images of one representative each:
      handles at k = 1.  Every other class holds at least two
      representatives per image, and negating or swapping them moves some.
    """
    if move.kind is MoveKind.TWIST:
        return True
    if move.cls is not GenClass.A:
        return False
    k = space.moduli[0]  # the handles' k; a move on class a means r > 0
    if move.kind is MoveKind.SLIDE and k == space.p:
        return move.source.cls is GenClass.G or (move.source.cls is GenClass.EF and move.source.part == 0)
    return k == 1


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
    more, and :func:`orbit_partition` drops it.  That is a safety net:
    :func:`orbit_partition` builds no gather for a move :func:`_absorbed`
    names, and no other generator's table is the identity.

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


_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_budget(p: int, v: Shape, budget: int) -> int:
    """The raw size of a checked shape's space, once it fits ``budget`` and
    int64: orbit sizes are int64 quotient counts times the fiber, each at
    most the raw size.

    Whether it fits is first bounded from the bit lengths of the bases of
    :func:`raw_state_powers`: a base b is at least 2^(bit_length(b) - 1).
    Only when that bound leaves the size within reach of the larger limit is
    it computed, so a shape with a million handles is refused at once.  A
    refused size past int64 is named by its powers, ``2^30*9^30``, and the
    error's ``required`` is ``None`` when it was not computed.
    """
    powers = raw_state_powers(p, v).items()
    # 2^low <= raw < 2^(2*low), as every base b has 2 <= 2^(bit_length(b) - 1) <= b
    low = sum(exponent * (base.bit_length() - 1) for base, exponent in powers)
    raw = None
    if low < max(budget, _INT64_MAX).bit_length():
        raw = raw_state_count(p, v)
    if raw is not None and raw <= min(budget, _INT64_MAX):
        return raw
    if raw is not None and raw <= _INT64_MAX:
        size = str(raw)
    else:
        size = "*".join(
            f"{base}^{exponent}" if exponent > 1 else str(base)
            for base, exponent in sorted(powers)
            if exponent
        )
    # raw is None only when it is past the budget and int64 both
    limit = f"the budget of {budget}" if raw is None or raw > budget else f"the int64 index range of {_INT64_MAX}"
    raise BudgetExceededError(
        f"shape {v} at p={p} has a raw state space of {size} states, over {limit}",
        required=raw,
        budget=budget,
    )


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
    gathers = [_Gather(space, move) for move in generator_moves(p, v) if not _absorbed(space, move)]
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


class Route(NamedTuple):
    """One way :func:`compare` counts a shape's classes.

    ``run(p, v, budget)`` returns the count and the side fields reported
    beside it, or raises :class:`BudgetExceededError` or
    :class:`MemoryError` when a budget or an allocation stops it; then
    ``stopped(p, v, exc)`` gives the side fields still known.  ``label``
    names the route in errors and in ``verify``'s table.  ``run`` calls its
    engine by module-global name, so a rebinding of that name reaches it.
    """

    name: str
    label: str
    run: Callable[[int, Tuple5, int], tuple[int, dict]]
    stopped: Callable[[int, Tuple5, Exception], dict] = lambda p, v, exc: {}

    @property
    def field(self) -> str:
        """The route's count field on :class:`Comparison`."""
        return f"{self.name}_count"


# The orbit route's side fields, None where it stopped
_SIDE_FIELDS = [field.name for field in dataclasses.fields(OrbitStats)[1:]]


def _orbit(p: int, v: Tuple5, budget: int) -> tuple[int, dict]:
    stats = orbit_count(p, v, budget=budget)
    return stats.orbits, {name: getattr(stats, name) for name in _SIDE_FIELDS}


def _orbit_stopped(p: int, v: Tuple5, exc: Exception) -> dict:
    # an allocation fails only past the budget check: the size fits int64
    raw = exc.required if isinstance(exc, BudgetExceededError) else raw_state_count(p, v)
    return {"state_space_size": raw}


#: The routes :func:`compare` runs, in order: the closed form, the normal
#: forms and the move orbits.
ROUTES = (
    Route("theorem", "theorem", lambda p, v, budget: (count_for_tuple(p, v), {})),
    Route("canonical", "canonical", lambda p, v, budget: (len(enumerate_canonical(p, v, budget=budget)), {})),
    Route("orbit", "orbits", _orbit, _orbit_stopped),
)

Comparison = dataclasses.make_dataclass(
    "Comparison",
    [("p", int), ("tuple", Tuple5), ("case", CaseTag)]
    + [(route.field, "int | None") for route in ROUTES]
    + [(name, "int | None") for name in _SIDE_FIELDS]
    + [("agreement", "dict[str, bool | None]"), ("complete", bool), ("errors", "list[str]")],
    namespace={"__module__": __name__},
)
Comparison.__doc__ = """Record for one shape: its count by each of :data:`ROUTES`.

A count is None where a budget or a failed allocation stopped its route;
``complete`` is then False, with the reasons in ``errors``.  The orbit
route's side fields follow the counts; ``state_space_size`` is ``None``
when the orbit budget check refused the shape without computing it.
``agreement`` holds one key ``<a>_vs_<b>`` per ordered pair of routes, a
before b in the list: whether their counts are equal, None where a side is
missing.  Disagreement is a finding, never an exception.
"""


def compare(
    p: int,
    v: Shape,
    budget: int = DEFAULT_STATE_BUDGET,
) -> Comparison:
    """Count a shape's classes by each of :data:`ROUTES`, in order, and
    compare each ordered pair; ``v`` is checked as in :func:`orbit_partition`."""
    require_odd_prime(p)
    v = Tuple5._make(v)
    genus_of(p, v)
    counts: dict[Route, int | None] = {}
    side = dict.fromkeys(_SIDE_FIELDS)
    errors: list[str] = []
    for route in ROUTES:
        try:
            counts[route], fields = route.run(p, v, budget)
        except (BudgetExceededError, MemoryError) as exc:
            counts[route], fields = None, route.stopped(p, v, exc)
            errors.append(f"{route.label}: {stop_reason(exc)}")
        side.update(fields)
    agreement = {
        f"{a.name}_vs_{b.name}": None if counts[a] is None or counts[b] is None else counts[a] == counts[b]
        for a, b in itertools.combinations(ROUTES, 2)
    }
    return Comparison(
        p, v, shape_case(v), *counts.values(), **side,
        agreement=agreement, complete=not errors, errors=errors,
    )
