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

import functools
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


def is_unit(x: int, p: int) -> bool:
    """Whether a residue in [0, p^2) generates the whole group."""
    return x % p != 0


def is_order_p(x: int, p: int) -> bool:
    """Whether a residue in [0, p^2) has exact order p."""
    return x % p == 0 and x % (p * p) != 0


def unit_values(p: int) -> tuple[int, ...]:
    """All units mod p^2, ascending."""
    q = p * p
    return tuple(x for x in range(1, q) if x % p)


def order_p_values(p: int) -> tuple[int, ...]:
    """All residues of exact order p, ascending."""
    q = p * p
    return tuple(range(p, q, p))


def state_dims(state: State) -> tuple[int, int, int, int, int]:
    return (len(state.a), len(state.bc), len(state.d), len(state.ef), len(state.g))


def require_dims(v: Tuple5, state: State) -> None:
    dims = state_dims(state)
    if dims != v.as_tuple():
        raise ValueError(f"state dimensions {dims} do not match shape {v}")


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
    r, s, t, m, n = v.as_tuple()
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


def is_valid_state(p: int, v: Tuple5, state: State) -> bool:
    """Order constraints plus surjectivity (at least one image is a unit)."""
    require_odd_prime(p)
    require_dims(v, state)
    q = p * p
    images = flatten(state)
    if any(not 0 <= x < q for x in images):
        return False
    if any(not is_unit(b, p) for b, _ in state.bc):
        return False
    if any(not is_unit(d, p) for d in state.d):
        return False
    if any(not is_order_p(e, p) for e, _ in state.ef):
        return False
    if any(not is_order_p(z, p) for z in state.g):
        return False
    return any(is_unit(x, p) for x in images)


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


def encode_state(p: int, v: Tuple5, state: State) -> int:
    """Fixed-radix encoding: each image a digit base p^2, first image highest.

    Encoded order is lexicographic order on the image vector; the smallest
    encoded state in an orbit serves as the orbit's representative.
    """
    require_dims(v, state)
    q = p * p
    value = 0
    for x in flatten(state):
        if not 0 <= x < q:
            raise ValueError(f"image {x} outside [0, {q})")
        value = value * q + x
    return value


@functools.cache
def state_template(dims: tuple[int, int, int, int, int]) -> str:
    """The :func:`format_state` text of every state of shape ``dims`` as a
    ``%`` template over :func:`flatten` of the state."""
    r, s, t, m, n = dims
    return "|".join(",".join(["%d"] * k) for k in (r, 2 * s, t, 2 * m, n))


def format_state(state: State) -> str:
    """Dump syntax: comma-separated residues, classes separated by ``|``.

    Paired classes are flattened in order, e.g. ``b1,c1,b2,c2``.  Empty
    classes leave their section empty, so every state has five sections.
    """
    return state_template(state_dims(state)) % flatten(state)


def parse_state(text: str) -> State:
    """Inverse of :func:`format_state`."""
    sections = text.strip().split("|")
    if len(sections) != 5:
        raise ValueError(f"expected five |-separated sections, got {len(sections)}")

    def ints(section: str) -> list[int]:
        return [int(x) for x in section.split(",")] if section else []

    def pairs(section: str, label: str) -> tuple[tuple[int, int], ...]:
        vals = ints(section)
        if len(vals) % 2:
            raise ValueError(f"{label} section must hold whole pairs, got {section!r}")
        return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(len(vals) // 2))

    return State(
        a=tuple(ints(sections[0])),
        bc=pairs(sections[1], "bc"),
        d=tuple(ints(sections[2])),
        ef=pairs(sections[3], "ef"),
        g=tuple(ints(sections[4])),
    )
