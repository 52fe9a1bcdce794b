"""Image vectors for the free-product generators.

A state fixes, for every generator of the quotient's fundamental group, its
image in Z_{p^2}, grouped by factor kind: ``a`` holds the r free-handle
images, ``bc`` the s (finite, free) pairs whose finite part must be a unit,
``d`` the t unit images, ``ef`` the m (finite, free) pairs whose finite part
must have order p, and ``g`` the n order-p images.  A state is valid when
those order constraints hold and the images generate the whole group, which
for a cyclic group of order p^2 means at least one image is a unit.

:data:`LAYOUT` is the one table of that layout: the functions here, the
paired classes and slide sources of :mod:`.moves` and the per-class
flattening of :mod:`.canonical` all read it.  Shapes are plain
``(r, s, t, m, n)`` tuples, taken as checked: the verification entry points
check them as :class:`~..tuples.Tuple5` does.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from ..tuples import Shape, require_odd_prime

#: Per class in state order (a, bc, d, ef, g, counted by r, s, t, m, n), the
#: domain kind of each coordinate of one entry: ``free`` ranges over all of
#: [0, p^2), ``unit`` over the units and ``order_p`` over the residues of
#: order p.  A class with two coordinates an entry holds (finite, free) pairs.
LAYOUT = (("free",), ("unit", "free"), ("unit",), ("order_p", "free"), ("order_p",))


class State(NamedTuple):
    """Generator images, one tuple per class; bc and ef hold (finite, free) pairs."""

    a: tuple[int, ...]
    bc: tuple[tuple[int, int], ...]
    d: tuple[int, ...]
    ef: tuple[tuple[int, int], ...]
    g: tuple[int, ...]


def unit_values(p: int) -> tuple[int, ...]:
    """All units mod p^2, ascending: every residue but the multiples of p."""
    return tuple(itertools.chain.from_iterable(range(k * p + 1, (k + 1) * p) for k in range(p)))


def order_p_values(p: int) -> tuple[int, ...]:
    """All residues of exact order p, ascending."""
    q = p * p
    return tuple(range(p, q, p))


#: Per :data:`LAYOUT` kind, its values as a function of p.
_KIND_VALUES = {"free": lambda p: tuple(range(p * p)), "unit": unit_values, "order_p": order_p_values}


def flatten(state: State) -> tuple[int, ...]:
    """All images in class order, each pair as its finite then its free image."""
    out: list[int] = []
    for entries, kinds in zip(state, LAYOUT):
        out += itertools.chain.from_iterable(entries) if len(kinds) > 1 else entries
    return tuple(out)


def unflatten(v: Shape, coords) -> State:
    """Rebuild a state of shape ``v`` from its flat image vector."""
    coords = tuple(coords)
    size = sum(len(kinds) * length for kinds, length in zip(LAYOUT, v))
    if len(coords) != size:
        raise ValueError(f"expected {size} images for {v}, got {len(coords)}")
    classes, pos = [], 0
    for kinds, length in zip(LAYOUT, v):
        run = coords[pos : pos + len(kinds) * length]
        classes.append(tuple(zip(run[::2], run[1::2])) if len(kinds) > 1 else run)
        pos += len(run)
    return State(*classes)


def coordinate_domains(p: int, v: Shape) -> list[tuple[int, ...]]:
    """Per-coordinate value domains, flattened in class order.

    Each coordinate's domain is that of its :data:`LAYOUT` kind: units for
    b and d, order-p residues for e and g, and all of [0, p^2) for the free
    coordinates a, c and f.  Only the kinds the shape holds are built, each
    once.
    """
    require_odd_prime(p)
    kinds = [kind for kinds, length in zip(LAYOUT, v) for _ in range(length) for kind in kinds]
    values = {kind: _KIND_VALUES[kind](p) for kind in set(kinds)}
    return [values[kind] for kind in kinds]


def coset_moduli(p: int, v: Shape) -> list[int]:
    """Per coordinate, flattened in class order, the k whose multiples the
    move alphabet can add to that image with every other image fixed.

    An image of kind ``unit`` generates Z_{p^2} (k = 1) and one of kind
    ``order_p`` generates pZ_{p^2} (k = p).  A twist adds any multiple of
    a pair's finite image to its free image, so the free image of a pair
    gets its partner's k: 1 for c, p for f.  A slide adds any multiple of
    any image of another factor to a free handle, so a handle gets the
    least k of the finite kinds the shape holds, and k = p^2 (nothing)
    when it holds none.  The finite images themselves keep k = p^2.

    Reducing each image mod its k maps every state to the least member of
    its coset, which lies in its orbit; :mod:`.orbits` runs on those.
    """
    q = p * p
    generates = {"unit": 1, "order_p": p}
    held = [generates[kind] for kinds, length in zip(LAYOUT, v) if length for kind in kinds if kind != "free"]
    handle = min(held, default=q)
    moduli = []
    for kinds, length in zip(LAYOUT, v):
        free = generates[kinds[0]] if len(kinds) > 1 else handle
        moduli += [free if kind == "free" else q for kind in kinds] * length
    return moduli


def raw_state_powers(p: int, v: Shape) -> dict[int, int]:
    """Size of the image-vector space as ``{base: exponent}``, one base per
    domain kind of :func:`coordinate_domains`, in this order: p^2 free
    values, p^2 - p units and p - 1 order-p residues.  Nothing is raised to
    a power."""
    require_odd_prime(p)
    q = p * p
    sizes = {"free": q, "unit": q - p, "order_p": p - 1}
    powers = dict.fromkeys(sizes.values(), 0)
    for kinds, length in zip(LAYOUT, v):
        for kind in kinds:
            powers[sizes[kind]] += length
    return powers


def raw_state_count(p: int, v: Shape) -> int:
    """Size of the image-vector space before the surjectivity filter.

    The product of the :func:`coordinate_domains` sizes, computed without
    building them (:func:`raw_state_powers`), so a budget can be checked
    before anything of size p^2 exists.
    """
    return math.prod(base**exponent for base, exponent in raw_state_powers(p, v).items())


def iter_valid_states(p: int, v: Shape) -> Iterator[State]:
    """All valid states, in lexicographic image-vector order.

    The per-coordinate domains already enforce the order constraints, so
    only the surjectivity filter is applied; with s+t > 0 it never fires
    because every b and d image is a unit.
    """
    _, s, t, _, _ = v
    doms = coordinate_domains(p, v)
    need_unit = s == 0 and t == 0
    for coords in itertools.product(*doms):
        if need_unit and not any(x % p for x in coords):
            continue
        yield unflatten(v, coords)
