"""Quotient shapes and the genus they act on.

A shape is an ordered 5-tuple (r, s, t, m, n) counting the free-product
factors of the quotient's fundamental group by kind: r free handles (Z),
s pairs of kind Z_{p^2} x Z, t of kind Z_{p^2}, m pairs of kind Z_p x Z,
and n of kind Z_p.  The genus a shape acts on is a fixed linear function
of its components; for given p and g the admissible shapes are the lattice
solutions of that equation, which :func:`_runs` solves.

There is one shape type, the tuple itself.  :class:`Tuple5` is that tuple
with named fields and a check at construction: shapes with r+s+t+m = 0
carry no action and are rejected.  The shape walk, :func:`shape_tables`,
yields plain tuples, an (r, s) table of runs at a time, and builds no
:class:`Tuple5`; :func:`per_table` pairs each of its tables with what a
consumer builds once per value of r+s, and :func:`admissible_tuples`
flattens it into :class:`Tuple5` shapes.  :func:`shape_case` and
:func:`genus_of` take either.
"""

from __future__ import annotations

import enum
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import InadmissibleTupleError

Shape = tuple[int, int, int, int, int]
#: A run of shapes of one table: t, and the m and n of its rows.
Run = tuple[int, range, range]


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
    """Which counting branch applies to a shape; exactly one tag per shape,
    the one :func:`shape_case` gives.  The value is the case's text in the
    CLI's output."""

    CASE_ST = "st"
    CASE_R = "r"
    CASE_M = "m"


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


def _runs(p: int, g: int, u: int) -> Iterator[Run]:
    """The runs ``(t, ms, ns)`` of the shapes with r+s = u acting on genus
    g, sorted.  The genus equation reads q*(r+s+m) + (q-1)*t + (q-p)*n =
    g-1+q, with q = p^2.  Fixing r+s and t fixes q*m + (q-p)*n =: R.  A
    solution needs R = p*R' (so t runs through one residue class mod p, as
    q-1 = -1 mod p) and m = R' mod p-1 (as p = 1 mod p-1); from one solution
    to the next m rises by p-1 while n falls by p.  Shapes with r+s+t+m = 0
    are never emitted.
    """
    q = p * p
    rest = g - 1 + q - q * u  # (q-1)*t + R
    for t in range(-rest % p, rest // (q - 1) + 1, p):
        reduced = (rest - (q - 1) * t) // p  # R'
        ms = range(reduced % (p - 1), reduced // p + 1, p - 1)
        if u + t == 0 and ms and ms[0] == 0:
            ms = ms[1:]
        if ms:
            n = (reduced - p * ms[0]) // (p - 1)
            yield t, ms, range(n, n - p * len(ms), -p)


def shape_tables(p: int, g: int) -> Iterator[tuple[int, int, list[Run]]]:
    """Every shape acting on genus g, as ``(r, s, runs)`` in lexicographic
    order of (r, s): the shapes are ``(r, s, t, m, n)`` for each ``(t, ms,
    ns)`` of ``runs`` (:func:`_runs` of r+s) and ``m, n`` in ``zip(ms, ns)``,
    sorted, with no list of shapes and no sort.

    ``runs`` depends on r+s alone, so each value of r+s has one table, built
    as the r = 0 pass first reaches that value and yielded again, the same
    list, by every later (r, s) with the same sum.  The tables are built
    lazily, so the first comes after one table is built, and together they
    never hold more entries than there are runs with r = 0.

    At the end the number of shapes is held to :func:`shape_count`; a
    difference raises :class:`AssertionError`, also under ``python -O``.
    """
    require_odd_prime(p)
    require_genus(g)
    last = (g - 1) // (p * p) + 1  # the largest r+s
    # per value u of r+s: its runs and their number of shapes
    tables: list[tuple[list[Run], int]] = []
    count = 0
    for r in range(last + 1):
        for u in range(r, last + 1):
            if u == len(tables):  # r = 0, and u is new
                runs = list(_runs(p, g, u))
                tables.append((runs, sum(len(ms) for _, ms, _ in runs)))
            runs, shapes = tables[u]
            count += shapes
            yield r, u - r, runs
    expected = shape_count(p, g)
    if count != expected:
        raise AssertionError(f"p={p} g={g}: the walk gave {count} shapes, the closed form {expected}")


def head_rows(s: int, runs: list[Run]) -> int:
    """How many rows of a table ``(r, s, runs)`` of :func:`shape_tables`
    come before its first one in case st: those of its run with s = t = 0,
    in case r or m (:func:`shape_case`).  Only an s = 0 table has that
    run, and it is the table's first."""
    return len(runs[0][1]) if not s and runs and not runs[0][0] else 0


def per_table(tables: Iterable[tuple], build: Callable[[list[Run]], object]) -> Iterator[tuple[tuple, object]]:
    """Each table ``(r, s, runs, ...)`` of ``tables``, in the order of
    :func:`shape_tables`, paired with ``build(runs)``.

    ``runs`` depends on r+s alone, so ``build`` is called once per value of
    r+s, as the r = 0 pass first reaches that value, and every later (r, s)
    with the same sum gets the same object.  Each call comes as its table
    is read, so the first pair comes after one call.
    """
    built = []
    for table in tables:
        r, s, runs = table[:3]
        if r + s == len(built):  # r = 0, and the table is new
            built.append(build(runs))
        yield table, built[r + s]


def genus_blocks(p: int, g: int) -> Iterator[tuple[int, int, int]]:
    """``(t, n, K)`` for every (t, n) that some shape of genus g has, with
    K = r+s+m, the same for all of the block's (K+1)(K+2)/2 shapes.

    They are the r = s = 0 table of :func:`shape_tables` with K = m, read
    lazily from its runs (:func:`_runs`), so grouped by t.  The closed forms
    of :func:`shape_count` and of the census total take one term per block.
    """
    require_odd_prime(p)
    require_genus(g)
    for t, ms, ns in _runs(p, g, 0):
        for K, n in zip(ms, ns):
            yield t, n, K


def shape_count(p: int, g: int) -> int:
    """The number of shapes acting on genus g, in closed form: the sum of
    (K+1)(K+2)/2 over :func:`genus_blocks`."""
    return sum((K + 1) * (K + 2) // 2 for _, _, K in genus_blocks(p, g))


def admissible_tuples(p: int, g: int) -> list[Tuple5]:
    """Every shape acting on genus g as a :class:`Tuple5`, sorted: the
    tables of :func:`shape_tables`, flattened, with the same check at the
    end."""
    return [
        Tuple5(r, s, t, m, n) for r, s, runs in shape_tables(p, g) for t, ms, ns in runs for m, n in zip(ms, ns)
    ]
