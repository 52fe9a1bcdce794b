"""Quotient shapes and the genus they act on.

A shape is an ordered 5-tuple (r, s, t, m, n) counting the free-product
factors of the quotient's fundamental group by kind: r free handles (Z),
s pairs of kind Z_{p^2} x Z, t of kind Z_{p^2}, m pairs of kind Z_p x Z,
and n of kind Z_p.  The genus a shape acts on is a fixed linear function
of its components; for given p and g the admissible shapes are the lattice
solutions of that equation.

There is one shape type, the tuple itself.  :class:`Tuple5` is that tuple
with named fields and a check at construction: shapes with r+s+t+m = 0
carry no action and are rejected.  The shape walk (:func:`shape_runs`,
:func:`iter_shapes`) yields plain tuples and builds no :class:`Tuple5`;
:func:`shape_case` and :func:`genus_of` take either.
"""

from __future__ import annotations

import enum
import sys
from itertools import chain, repeat
from typing import Iterator, NamedTuple

from .errors import InadmissibleTupleError

Shape = tuple[int, int, int, int, int]


def require_odd_prime(p: int) -> int:
    """Validate p by trial division: an odd prime, at least 3."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"p must be prime, got {p} = {d} * {p // d}")
        d += 2
    return p


def require_genus(g: int) -> int:
    if not isinstance(g, int) or isinstance(g, bool) or g < 1:
        raise ValueError(f"genus must be an integer >= 1, got {g!r}")
    return g


# The fields alone: a NamedTuple class may not define __new__, so the
# checks live in the subclass.
class _Fields(NamedTuple):
    r: int
    s: int
    t: int
    m: int
    n: int


class Tuple5(_Fields):
    """Factor counts (r, s, t, m, n), each at most ``sys.maxsize``; at least
    one of r, s, t, m is positive.

    A ``Tuple5`` is its plain tuple ``(r, s, t, m, n)``: equal to it, hashed
    and sorted like it.  Every way of building one (the constructor,
    ``_make``, ``_replace``) runs the same checks, which raise
    ``ValueError``, also under ``python -O``.  ``_make``, which the entry
    points call on a plain shape, also raises it when the shape does not
    have five components.
    """

    __slots__ = ()

    def __new__(cls, r: int, s: int, t: int, m: int, n: int) -> "Tuple5":
        parts = (r, s, t, m, n)
        for x in parts:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError(
                    f"shape components must be nonnegative integers, got {parts}"
                )
            if x > sys.maxsize:
                raise ValueError(
                    f"shape components must be at most sys.maxsize = {sys.maxsize}, "
                    f"got {parts}: no state holds more images of one class"
                )
        if r + s + t + m == 0:
            raise ValueError(
                f"need r+s+t+m > 0, got {parts}: a shape made of Z_p factors "
                "alone has no canonical form"
            )
        return super().__new__(cls, r, s, t, m, n)

    @classmethod
    def _make(cls, iterable) -> "Tuple5":
        parts = tuple(iterable)
        if len(parts) != 5:
            raise ValueError(f"expected five components r,s,t,m,n, got {parts!r}")
        return cls(*parts)

    @classmethod
    def parse(cls, text: str) -> "Tuple5":
        """Parse the CLI syntax ``r,s,t,m,n``."""
        parts = text.split(",")
        if len(parts) != 5:
            raise ValueError(f"expected five components r,s,t,m,n, got {text!r}")
        try:
            values = [int(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"expected five integers r,s,t,m,n, got {text!r}") from exc
        return cls(*values)

    def __str__(self) -> str:
        """The shape as ``(r,s,t,m,n)``, without spaces."""
        return "(%d,%d,%d,%d,%d)" % self


class CaseTag(enum.Enum):
    """Which counting branch applies to a shape; exactly one tag per shape.

    ``text`` is the value as a plain attribute, for code that reads it once
    a run: ``Enum.value`` is a Python-level property.
    """

    CASE_ST = "st"
    CASE_R = "r"
    CASE_M = "m"

    def __init__(self, text: str):
        self.text = text


def shape_case(v: Shape) -> CaseTag:
    """The case of a shape: s+t > 0 wins, then r > 0, else m > 0 is forced."""
    r, s, t, _, _ = v
    if s + t > 0:
        return CaseTag.CASE_ST
    if r > 0:
        return CaseTag.CASE_R
    return CaseTag.CASE_M


def genus_of(p: int, v: Shape) -> int:
    """Genus forced by a shape: 1 + p^2(r+s+m-1) + (p^2-1)t + (p^2-p)n.

    ``v`` may be a plain tuple; it is checked as :class:`Tuple5` checks it,
    so one with components it rejects raises ``ValueError``.  Raises
    :class:`InadmissibleTupleError` when the formula lands below 1, which
    can only happen for r+s+m = 0 with t, n small.
    """
    require_odd_prime(p)
    r, s, t, m, n = Tuple5._make(v)
    q = p * p
    g = 1 + q * (r + s + m - 1) + (q - 1) * t + (q - p) * n
    if g < 1:
        raise InadmissibleTupleError(f"shape {v} forces genus {g} < 1")
    return g


def shape_runs(p: int, g: int) -> Iterator[tuple[int, int, int, range, range]]:
    """Every shape acting on genus g, as runs ``(r, s, t, ms, ns)`` in
    lexicographic order: the run's shapes are ``(r, s, t, m, n)`` for
    ``m, n`` in ``zip(ms, ns)``.

    The genus equation reads q*(r+s+m) + (q-1)*t + (q-p)*n = g-1+q, with
    q = p^2.  Fixing (r, s, t) fixes q*m + (q-p)*n =: R.  A solution needs
    R = p*R' (so t runs through one residue class mod p, as q-1 = -1 mod p)
    and m = R' mod p-1 (as p = 1 mod p-1); from one solution to the next m
    rises by p-1 while n falls by p.  So the runs come out already sorted,
    with no list of shapes and no sort.  Shapes with r+s+t+m = 0 are never
    emitted.

    A run's ``(t, ms, ns)`` depends on r+s alone, so each value of r+s has
    one table of them, built as the r = 0 pass first reaches that value and
    read again by every later (r, s) with the same sum; those share the
    ``ms`` and ``ns`` objects.  The tables are built lazily, so the first run
    comes after one table, and together they never hold more entries than
    there are runs with r = 0.

    At the end the number of shapes is held to :func:`shape_count`; a
    difference raises :class:`AssertionError`, also under ``python -O``.
    """
    require_odd_prime(p)
    require_genus(g)
    q = p * p
    top = g - 1 + q  # q*(r+s+m) + (q-1)*t + (q-p)*n
    # per value u of r+s: its runs' (t, ms, ns) and their number of shapes
    tables: list[tuple[list[tuple[int, range, range]], int]] = []
    count = 0
    for r in range(top // q + 1):
        for u in range(r, top // q + 1):
            if u == len(tables):  # r = 0, and u is new
                rest = top - q * u  # (q-1)*t + R
                runs, shapes = [], 0
                for t in range(-rest % p, rest // (q - 1) + 1, p):
                    reduced = (rest - (q - 1) * t) // p  # R'
                    ms = range(reduced % (p - 1), reduced // p + 1, p - 1)
                    if u + t == 0 and ms and ms[0] == 0:
                        ms = ms[1:]
                    if ms:
                        n = (reduced - p * ms[0]) // (p - 1)
                        runs.append((t, ms, range(n, n - p * len(ms), -p)))
                        shapes += len(ms)
                tables.append((runs, shapes))
            runs, shapes = tables[u]
            count += shapes
            yield from map((r, u - r).__add__, runs)
    expected = shape_count(p, g)
    if count != expected:
        raise AssertionError(f"p={p} g={g}: the walk gave {count} shapes, the closed form {expected}")


def iter_shapes(p: int, g: int) -> Iterator[Shape]:
    """Every shape acting on genus g as a plain ``(r, s, t, m, n)``, sorted:
    the runs of :func:`shape_runs`, flattened, with the same check at the
    end."""
    return chain.from_iterable(
        zip(repeat(r), repeat(s), repeat(t), ms, ns) for r, s, t, ms, ns in shape_runs(p, g)
    )


def genus_blocks(p: int, g: int) -> Iterator[tuple[int, int, int]]:
    """``(t, n, K)`` for every (t, n) that some shape of genus g has, with
    K = r+s+m, the same for all of the block's (K+1)(K+2)/2 shapes.

    For each n, t runs through one residue class mod q, as q-1 = -1 mod q.
    The closed forms of :func:`shape_count` and of the census total take one
    term per block.
    """
    require_odd_prime(p)
    require_genus(g)
    q = p * p
    top = g - 1 + q  # q*K + (q-1)*t + (q-p)*n
    for n in range(top // (q - p) + 1):
        rest = top - (q - p) * n
        for t in range(-rest % q, rest // (q - 1) + 1, q):
            K = (rest - (q - 1) * t) // q
            if K or t:
                yield t, n, K


def shape_count(p: int, g: int) -> int:
    """The number of shapes acting on genus g, in closed form: the sum of
    (K+1)(K+2)/2 over :func:`genus_blocks`."""
    return sum((K + 1) * (K + 2) // 2 for _, _, K in genus_blocks(p, g))


def admissible_tuples(p: int, g: int) -> list[Tuple5]:
    """Every shape acting on genus g as a :class:`Tuple5`, sorted."""
    return [Tuple5(*v) for v in iter_shapes(p, g)]
