"""Class counts per shape and the census for one (prime, genus).

Each shape's count is a product, or a two-term sum of products, of the
nondecreasing-tuple counts from :mod:`.counting`, taken over pools whose
sizes depend only on p:

* ``unit_pool``: units mod p^2 in the lower half-range, p(p-1)/2 of them,
* ``order_p_pool``: multiples of p in the same range, (p-1)/2 of them,
* ``pinned_pair_pool``: (order-p, unit) image pairs, (p-1)^2/2 of them.

All three branches live in one plain-integer kernel, :func:`count_kernel`,
which both :func:`count_for_tuple` and :func:`census` call.  The census is
stored column-wise (shapes as plain tuples, case tags, counts and per-row
flags in parallel lists), so a census of 10^5 shapes builds no object per
shape; ``CountReport.rows`` builds :class:`TupleCount` rows on demand.

The census always reports the literal formula value.  Where the published
worked example this tool audits lists a different number, the published
value is attached as a discrepancy flag next to the computed one, never in
its place.
"""

from __future__ import annotations

import dataclasses

from .counting import count_A
from .tuples import CaseTag, Shape, Tuple5, format_shape, require_odd_prime, shape_tuples

Pools = tuple[int, int, int]


def pools(p: int) -> Pools:
    """(unit, order-p, pinned-pair) pool sizes: p*h, h and (p-1)*h, h = (p-1)/2.

    The halving is exact because :func:`require_odd_prime` rejects every
    even p with a ``ValueError``, a check that ``python -O`` keeps.
    """
    require_odd_prime(p)
    h = (p - 1) // 2
    return p * h, h, (p - 1) * h


def unit_pool(p: int) -> int:
    """Units mod p^2 in [1, (p^2-1)/2]: one per negation pair, p(p-1)/2 total."""
    return pools(p)[0]


def order_p_pool(p: int) -> int:
    """Multiples of p in [1, (p^2-1)/2]: one per negation pair, (p-1)/2 total."""
    return pools(p)[1]


def pinned_pair_pool(p: int) -> int:
    """(order-p, unit) pairs with the unit reduced mod p: (p-1)^2/2 total."""
    return pools(p)[2]


def count_kernel(
    pool_sizes: Pools, r: int, s: int, t: int, m: int, n: int
) -> tuple[CaseTag, int]:
    """The case tag of a shape and its count, from the :func:`pools` of p.

    * s+t > 0 (case st): A(k,s) A(k,t) A(k,m) A(kn,n), a product of four
      tuple counts.
    * otherwise the pinned-pair branch kp A(k,m-1) A(kn,n) pins one
      (order-p, unit) pair; with m = 0 there is nothing to pin and the term
      is 0.  With r > 0 (case r) the pinned-handle branch k A(kn,m) A(kn,n)
      is added; with r = 0 (case m, so m > 0) the pinned-pair branch is the
      count.
    """
    k, kn, kp = pool_sizes
    if s + t:
        return CaseTag.CASE_ST, count_A(k, s) * count_A(k, t) * count_A(k, m) * count_A(kn, n)
    pinned_pair = kp * count_A(k, m - 1) * count_A(kn, n) if m else 0
    if r:
        return CaseTag.CASE_R, pinned_pair + k * count_A(kn, m) * count_A(kn, n)
    return CaseTag.CASE_M, pinned_pair


def _count_in_case(p: int, v: Tuple5, expected: CaseTag) -> int:
    case, count = count_kernel(pools(p), *v.as_tuple())
    if case is not expected:
        raise ValueError(
            f"shape {v} belongs to case {case.value!r}, not case {expected.value!r}"
        )
    return count


def count_case_st(p: int, v: Tuple5) -> int:
    """Count for shapes with s+t > 0: a product of four tuple counts."""
    return _count_in_case(p, v, CaseTag.CASE_ST)


def count_case_r(p: int, v: Tuple5) -> int:
    """Count for shapes with s = t = 0 and r > 0: a two-branch sum.

    The first branch pins one (order-p, unit) pair and is empty when m = 0,
    since with no pairs there is nothing to pin; its term is defined as 0
    there.  The second branch pins one handle image to a unit instead.
    """
    return _count_in_case(p, v, CaseTag.CASE_R)


def count_case_m(p: int, v: Tuple5) -> int:
    """Count for shapes with r = s = t = 0 (so m > 0): the pinned-pair branch."""
    return _count_in_case(p, v, CaseTag.CASE_M)


def count_for_tuple(p: int, v: Tuple5) -> int:
    """Evaluate the counting branch matching the shape's case tag."""
    return count_kernel(pools(p), *v.as_tuple())[1]


@dataclasses.dataclass(frozen=True)
class Flag:
    """One documented mismatch between a published value and a computed one."""

    location: str
    paper_value: int
    computed_value: int


@dataclasses.dataclass
class TupleCount:
    """One census row: a shape, its case, its count, and any flags."""

    tuple: Tuple5
    case: CaseTag
    count: int
    flags: list[Flag] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class CountReport:
    """A full census, stored column-wise: row i is ``shapes[i]``, ``cases[i]``,
    ``counts[i]`` and ``row_flags[i]``, plus the exact total.

    Rows without flags share the empty tuple, so the columns hold no object
    per shape beyond its plain tuple and its count.
    """

    p: int
    g: int
    shapes: list[Shape]
    cases: list[CaseTag]
    counts: list[int]
    row_flags: list[tuple[Flag, ...]]
    total: int
    reference_total: int | None = None

    @property
    def rows(self) -> list[TupleCount]:
        """One :class:`TupleCount` per shape, built on each access."""
        return [
            TupleCount(tuple=Tuple5(*v), case=case, count=count, flags=list(flags))
            for v, case, count, flags in zip(self.shapes, self.cases, self.counts, self.row_flags)
        ]

    @property
    def flags(self) -> list[Flag]:
        return [flag for flags in self.row_flags for flag in flags]


# Published reference census: per-shape class counts and the printed total
# for the one (p, g) pair the source worked out in full.  Two of the six
# per-shape values (and hence the total) differ from the literal formulas;
# census() surfaces the difference as flags and decides nothing.
PUBLISHED_CENSUS: dict[tuple[int, int], tuple[int, dict[Shape, int]]] = {
    (5, 26): (
        248,
        {
            (0, 2, 0, 0, 0): 55,
            (2, 0, 0, 0, 0): 10,
            (0, 0, 0, 2, 0): 55,
            (1, 1, 0, 0, 0): 10,
            (1, 0, 0, 1, 0): 18,
            (0, 1, 0, 1, 0): 100,
        },
    ),
}


def census(p: int, g: int) -> CountReport:
    """Count every admissible shape for (p, g); rows sorted lexicographically.

    The total is the exact sum of the rows.  When the pair (p, g) has a
    published reference census, its total is attached as ``reference_total``
    and any per-shape disagreement becomes a row flag.
    """
    shapes = shape_tuples(p, g)  # validates p and g
    pool_sizes = pools(p)
    results = [count_kernel(pool_sizes, *v) for v in shapes]
    counts = [count for _, count in results]
    row_flags: list[tuple[Flag, ...]] = [()] * len(shapes)
    published = PUBLISHED_CENSUS.get((p, g))
    if published is not None:
        for i, v in enumerate(shapes):
            ref = published[1].get(v)
            if ref is not None and ref != counts[i]:
                location = f"published census p={p} g={g}, shape {format_shape(v)}"
                row_flags[i] = (Flag(location=location, paper_value=ref, computed_value=counts[i]),)
    return CountReport(
        p=p,
        g=g,
        shapes=shapes,
        cases=[case for case, _ in results],
        counts=counts,
        row_flags=row_flags,
        total=sum(counts),
        reference_total=None if published is None else published[0],
    )
