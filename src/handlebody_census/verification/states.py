"""Image vectors for the free-product generators.

A state fixes, for every generator of the quotient's fundamental group, its
image in Z_{p^2}, grouped by factor kind: ``a`` holds the r free-handle
images, ``bc`` the s (finite, free) pairs whose finite part must be a unit,
``d`` the t unit images, ``ef`` the m (finite, free) pairs whose finite part
must have order p, and ``g`` the n order-p images.  A state is valid when
those order constraints hold and the images generate the whole group, which
for a cyclic group of order p^2 means at least one image is a unit.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from ..tuples import Tuple5, require_odd_prime


class State(NamedTuple):
    """Generator images, one tuple per class; bc and ef hold (finite, free) pairs."""

    a: tuple[int, ...]
    bc: tuple[tuple[int, int], ...]
    d: tuple[int, ...]
    ef: tuple[tuple[int, int], ...]
    g: tuple[int, ...]


def unit_values(p: int) -> tuple[int, ...]:
    """All units mod p^2, ascending."""
    q = p * p
    return tuple(x for x in range(1, q) if x % p)


def order_p_values(p: int) -> tuple[int, ...]:
    """All residues of exact order p, ascending."""
    q = p * p
    return tuple(range(p, q, p))


def flatten(state: State) -> tuple[int, ...]:
    """All images in class order: a, then b,c pairs, d, e,f pairs, g."""
    out = list(state.a)
    for b, c in state.bc:
        out.append(b)
        out.append(c)
    out.extend(state.d)
    for e, f in state.ef:
        out.append(e)
        out.append(f)
    out.extend(state.g)
    return tuple(out)


def unflatten(v: Tuple5, coords) -> State:
    """Rebuild a state from its flat image vector."""
    coords = tuple(coords)
    r, s, t, m, n = v
    if len(coords) != r + 2 * s + t + 2 * m + n:
        raise ValueError(f"expected {r + 2 * s + t + 2 * m + n} images for {v}, got {len(coords)}")
    pos = 0
    a = coords[pos : pos + r]
    pos += r
    bc = tuple((coords[pos + 2 * i], coords[pos + 2 * i + 1]) for i in range(s))
    pos += 2 * s
    d = coords[pos : pos + t]
    pos += t
    ef = tuple((coords[pos + 2 * i], coords[pos + 2 * i + 1]) for i in range(m))
    pos += 2 * m
    g = coords[pos : pos + n]
    return State(a=a, bc=bc, d=d, ef=ef, g=g)


def coordinate_domains(p: int, v: Tuple5) -> list[tuple[int, ...]]:
    """Per-coordinate value domains, flattened in class order.

    Finite-order coordinates carry their constrained domains (units for b
    and d, order-p residues for e and g); free coordinates (a, c, f) range
    over all of [0, p^2).
    """
    require_odd_prime(p)
    units = unit_values(p)
    orderp = order_p_values(p)
    free = tuple(range(p * p))
    doms: list[tuple[int, ...]] = []
    doms.extend([free] * v.r)
    for _ in range(v.s):
        doms.append(units)
        doms.append(free)
    doms.extend([units] * v.t)
    for _ in range(v.m):
        doms.append(orderp)
        doms.append(free)
    doms.extend([orderp] * v.n)
    return doms


def raw_state_count(p: int, v: Tuple5) -> int:
    """Size of the image-vector space before the surjectivity filter.

    The product of the :func:`coordinate_domains` sizes, computed without
    building them, so a budget can be checked before anything of size p^2
    exists: p^2 free values, p^2 - p units and p - 1 order-p residues.
    """
    require_odd_prime(p)
    q = p * p
    return q ** (v.r + v.s + v.m) * (q - p) ** (v.s + v.t) * (p - 1) ** (v.m + v.n)


def iter_valid_states(p: int, v: Tuple5) -> Iterator[State]:
    """All valid states, in lexicographic image-vector order.

    The per-coordinate domains already enforce the order constraints, so
    only the surjectivity filter is applied; with s+t > 0 it never fires
    because every b and d image is a unit.
    """
    doms = coordinate_domains(p, v)
    need_unit = v.s == 0 and v.t == 0
    for coords in itertools.product(*doms):
        if need_unit and not any(x % p for x in coords):
            continue
        yield unflatten(v, coords)
