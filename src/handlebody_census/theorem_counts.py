"""Class counts per shape and the census for one (prime, genus).

Each shape's count is one product of the nondecreasing-tuple counts of
:mod:`.counting`, taken over pools whose sizes depend only on p:

* units mod p^2 in the lower half-range, k = p(p-1)/2 of them,
* multiples of p in the same range, kn = (p-1)/2 of them,
* pinned (order-p, unit) image pairs, kp = (p-1)^2/2 of them.

:func:`pools` gives the three sizes.  A shape (r, s, t, m, n) counts
A(k,s) A(k,t) M(m) A(kn,n), where only the factor M of m, :func:`m_factor`,
depends on the shape's case (cases r and m have s = t = 0, and A(k,0) is
1).  :func:`count_kernel` is that product, for
:func:`count_for_tuple` (so ``compare``), the normal-form refusal and the
published-census flags.

The census never lists its shapes.  :func:`census` gives the total and the
number of shapes in closed form, one term per (t, n) block, and
:meth:`CountReport.iter_tables` streams the rows in lexicographic order, an
(r, s) table of the shape walk (:func:`~.tuples.shape_tables`) at a time.
The walk tags each run (t, ms, ns) with its rows' case and builds at most
two lists of runs per value of r+s.  The census builds a run's list of
M(m) A(kn,n) once per case and (ms, ns), with factors from
:func:`factor_lists`, and gathers a list of runs' lists once
(:func:`~.tuples.per_table`); an (r, s) then costs one list comprehension
over its table and one multiplication a row by A(k,s) A(k,t).
:meth:`CountReport.iter_rows` flattens the tables into plain row tuples
``(r, s, t, m, n, case, count, flags)``.  The counts yielded are checked
against the closed form when they have all been read.
:meth:`CountReport.largest_count` gives the largest count in closed form,
one term per (t, n) block, without the rows.

The census always reports the literal formula value.  Where the published
worked example this tool audits lists a different number, the published
value is attached as a discrepancy flag next to the computed one, never in
its place.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from itertools import chain, repeat
from typing import Iterator

from .counting import count_A, count_A_list
from .tuples import (
    CaseTag,
    Run,
    Shape,
    Tuple5,
    genus_blocks,
    per_table,
    require_genus,
    require_odd_prime,
    shape_case,
    shape_tables,
)

Pools = tuple[int, int, int]


def pools(p: int) -> Pools:
    """(unit, order-p, pinned-pair) pool sizes: p*h, h and (p-1)*h, h = (p-1)/2.

    The halving is exact because :func:`require_odd_prime` rejects every
    even p with a ``ValueError``, a check that ``python -O`` keeps.
    """
    require_odd_prime(p)
    h = (p - 1) // 2
    return p * h, h, (p - 1) * h


def m_factor(pool_sizes: Pools, case: CaseTag, m: int, A_k=None, A_kn=None) -> int:
    """The factor M(m) of a shape's count in its case, from the :func:`pools`
    of p:

    * case st: A(k,m);
    * case m: the pinned-pair branch kp A(k,m-1), which pins one (order-p,
      unit) pair, or 0 at m = 0, with nothing to pin;
    * case r: that branch plus the pinned-handle branch k A(kn,m).

    ``A_k`` and ``A_kn`` map j to A(k,j) and A(kn,j); :func:`factor_lists`
    passes its lists', and without them :func:`~.counting.count_A` computes
    each.
    """
    k, kn, kp = pool_sizes
    if A_k is None:
        A_k, A_kn = functools.partial(count_A, k), functools.partial(count_A, kn)
    if case is CaseTag.CASE_ST:
        return A_k(m)
    pinned_pair = kp * A_k(m - 1) if m else 0
    if case is CaseTag.CASE_R:
        return pinned_pair + k * A_kn(m)
    return pinned_pair


def count_kernel(
    pool_sizes: Pools, r: int, s: int, t: int, m: int, n: int
) -> tuple[CaseTag, int]:
    """The case tag of a shape (:func:`shape_case`) and its count
    A(k,s) A(k,t) M(m) A(kn,n), M the case's :func:`m_factor`, from the
    :func:`pools` of p."""
    k, kn, _ = pool_sizes
    case = shape_case((r, s, t, m, n))
    return case, count_A(k, s) * count_A(k, t) * m_factor(pool_sizes, case, m) * count_A(kn, n)


def factor_lists(p: int, g: int) -> tuple[list[int], list[int], dict[CaseTag, list[int]]]:
    """The factors of the counts of the shapes acting on genus g, as lists
    indexed by a shape component: A(k,j) for every s and t, A(kn,j) for
    every n, and per case its :func:`m_factor` for every m.  Built from the
    one-step ratios of :func:`~.counting.count_A_list`; at p=101, g=10^8 one
    binomial per entry took seconds."""
    pool_sizes = pools(p)
    k, kn, _ = pool_sizes
    q = p * p
    top = require_genus(g) - 1 + q  # q*(r+s+m) + (q-1)*t + (q-p)*n
    A_k = count_A_list(k, top // (q - 1))  # j = s, t or m
    A_kn = count_A_list(kn, top // (q - p))  # j = n or m
    ms = range(top // q + 1)
    by_m = {case: [m_factor(pool_sizes, case, m, A_k.__getitem__, A_kn.__getitem__) for m in ms] for case in CaseTag}
    return A_k, A_kn, by_m


def count_for_tuple(p: int, v: Shape) -> int:
    """The class count of a shape, as :func:`count_kernel` gives it.

    ``v`` may be a plain tuple; it is checked as :class:`Tuple5` checks it,
    so one with components it rejects raises ``ValueError``.
    """
    return count_kernel(pools(p), *Tuple5._make(v))[1]


@dataclasses.dataclass(frozen=True)
class Flag:
    """One documented mismatch between a published value and a computed one."""

    location: str
    paper_value: int
    computed_value: int


#: One census row: r, s, t, m, n, its case, its count and its flags.
CensusRow = tuple[int, int, int, int, int, CaseTag, int, tuple[Flag, ...]]
#: One census table: a table (r, s, runs) of the shape walk, and per row
#: the count, and the flags when some row has any.
CensusTable = tuple[int, int, list[Run], list[int], list[tuple[Flag, ...]] | None]


@dataclasses.dataclass
class CountReport:
    """A full census: the exact total and the number of shapes, both in
    closed form, the published reference total and flags when there are
    any, and the rows on demand.

    ``shape_flags`` holds the flags of the flagged shapes only, in row order.
    """

    p: int
    g: int
    total: int
    shape_count: int
    reference_total: int | None = None
    shape_flags: dict[Shape, tuple[Flag, ...]] = dataclasses.field(default_factory=dict)

    @property
    def flags(self) -> list[Flag]:
        return [flag for flags in self.shape_flags.values() for flag in flags]

    def iter_tables(self) -> Iterator[CensusTable]:
        """The rows a table of :func:`~.tuples.shape_tables` at a time, one
        per (r, s), in lexicographic order, computed as they are read:
        ``(r, s, runs, counts, flags)``, the walk's table with row i's count
        ``counts[i]``: the rows are ``(r, s, t, m, n)`` for each ``(t, ms,
        ns, case)`` of ``runs`` and ``m, n`` in ``zip(ms, ns)``, all in the
        run's case.  ``flags`` is ``None`` when no row has a flag, else each
        row's flags (``()`` when it has none).

        A row's count is :func:`count_kernel`'s, factored as ``A(k,s) A(k,t)
        * (M(m) A(kn,n))`` with M its case's :func:`m_factor`.  The list of
        ``M(m) A(kn,n)`` over a run is built once per case and (ms, ns) and
        shared by every table that holds those columns, and each list of
        runs gathers its runs' lists once (:func:`~.tuples.per_table`).  An
        (r, s) then costs one list comprehension over its table, one
        multiplication a row.  ``runs`` is the walk's, shared by every (r,
        s) with the same r+s and s > 0: treat it as read-only.

        What is kept is one factor per row of the distinct cases and
        columns, about g^2 of them, where a list per table would hold one
        per row with r = 0, about g^3.

        Once every table has been read, the number of rows and the sum of
        the counts yielded are held to ``shape_count`` and ``total``; a
        difference raises :class:`AssertionError`, also under ``python -O``.
        """
        p, g, shape_flags = self.p, self.g, self.shape_flags
        A_k, A_kn, by_m = factor_lists(p, g)
        flagged = {v[:2] for v in shape_flags}

        @functools.cache
        def columns(case: CaseTag, ms: range, ns: range) -> list[int]:
            """The case's M(m) A(kn,n) over a run."""
            by_case = by_m[case]
            return [by_case[m] * A_kn[n] for m, n in zip(ms, ns)]

        count = total = 0
        tables = per_table(shape_tables(p, g), lambda runs: [columns(case, ms, ns) for _, ms, ns, case in runs])
        for (r, s, runs), table in tables:
            A_s = A_k[s]
            run_factors = [A_s * A_k[t] for t, _, _, _ in runs]
            counts = [f * x for f, factors in zip(run_factors, table) for x in factors]
            flags = None
            if (r, s) in flagged:
                flags = [shape_flags.get((r, s, t, m, n), ()) for t, ms, ns, _ in runs for m, n in zip(ms, ns)]
            count += len(counts)
            total += sum(counts)
            yield r, s, runs, counts, flags
        if (count, total) != (self.shape_count, self.total):
            raise AssertionError(
                f"census p={p} g={g}: the rows give {count} shapes and total {total}, "
                f"the closed form {self.shape_count} and {self.total}"
            )

    def largest_count(self) -> int:
        """The largest count of any row, 0 when there are none, in closed
        form: the largest over the :func:`~.tuples.genus_blocks` (t, n, K)
        of the case st count with r = 0 and s = max(K//2, [t = 0]).

        Every count of a block is A(kn,n) times a factor of its (r, s, m),
        r+s+m = K.  In case st that factor is A(k,s) A(k,t) A(k,m), and
        A(k,s) A(k,m) over s+m <= K is largest at r = 0, s = K//2: A(k,j)
        rises with j, and log A(k,j) is concave, as the ratio
        A(k,j+1)/A(k,j) = (k+j)/(j+1) falls as j grows.  At t = 0 case st
        needs s >= 1, which only K = 1 changes.  The other cases have
        t = 0, and each stays below a case st count of its block:

        * case m, s = 0 and m = K: M(K) = kp A(k,K-1) < A(k,1) A(k,K-1),
          as kp < k;
        * case r, m <= K-1: M(m) <= M(K-1) <= k A(k,K-1) = A(k,1) A(k,K-1),
          by Pascal's rule A(k,j) = A(k-1,j) + A(k,j-1) with kn <= k-1 and
          kp < k; the two are equal at K = 1.
        """
        k, kn, _ = pools(self.p)
        tops = []
        for t, n, K in genus_blocks(self.p, self.g):
            s = max(K // 2, 0 if t else 1)
            tops.append(count_A(kn, n) * count_A(k, t) * count_A(k, s) * count_A(k, K - s))
        return max(tops, default=0)

    def iter_rows(self) -> Iterator[CensusRow]:
        """The rows of :meth:`iter_tables` as plain tuples ``(r, s, t, m, n,
        case, count, flags)``, with the same check at the end.  A row takes
        its run's case; ``flags`` is ``()`` for a row with none."""

        def table_rows():
            for r, s, runs, counts, flags in self.iter_tables():
                ts, ms, ns, cases = list(zip(*runs)) or [()] * 4
                lens = list(map(len, ms))
                t_col = chain.from_iterable(map(repeat, ts, lens))
                m_col, n_col = chain.from_iterable(ms), chain.from_iterable(ns)
                case_col = chain.from_iterable(map(repeat, cases, lens))
                yield zip(repeat(r), repeat(s), t_col, m_col, n_col, case_col, counts, flags or repeat(()))

        return chain.from_iterable(table_rows())


# Published reference census: per-shape class counts and the printed total
# for the one (p, g) pair the source worked out in full.  Two of the six
# per-shape values (and hence the total) differ from the literal formulas;
# census() surfaces the difference as flags and decides nothing.
PUBLISHED_CENSUS: dict[tuple[int, int], tuple[int, dict[Tuple5, int]]] = {
    (5, 26): (
        248,
        {
            Tuple5(0, 2, 0, 0, 0): 55,
            Tuple5(2, 0, 0, 0, 0): 10,
            Tuple5(0, 0, 0, 2, 0): 55,
            Tuple5(1, 1, 0, 0, 0): 10,
            Tuple5(1, 0, 0, 1, 0): 18,
            Tuple5(0, 1, 0, 1, 0): 100,
        },
    ),
}


def census(p: int, g: int) -> CountReport:
    """The census of (p, g): its total and shape count in closed form, its
    rows on demand (:meth:`CountReport.iter_tables` and
    :meth:`CountReport.iter_rows`, lexicographic order).

    One pass over the (t, n) blocks of :func:`genus_blocks`, K = r+s+m,
    gives both: a block holds (K+1)(K+2)/2 shapes, and the sum of their
    counts collapses by Chu-Vandermonde, as the sum of A(k,s) A(k,m) over
    s+m <= K is C(2k+K, K):

    * t > 0: every shape is case st, and the block total is
      A(kn,n) A(k,t) C(2k+K, K).
    * t = 0: case st is the s > 0 part, C(2k+K, K) - C(k+K, K); the
      pinned-pair branch adds kp C(k+K-1, K-1) and the pinned-handle branch
      of case r adds k C(kn+K-1, K-1), all times A(kn,n).

    When the pair (p, g) has a published reference census, its total is
    attached as ``reference_total``, and each published shape whose
    :func:`count_kernel` value differs is flagged.
    """
    pool_sizes = pools(p)
    k, kn, kp = pool_sizes
    total = shapes = 0
    for t, n, K in genus_blocks(p, g):
        shapes += (K + 1) * (K + 2) // 2
        both = math.comb(2 * k + K, K)
        if t:
            total += count_A(kn, n) * count_A(k, t) * both
        else:
            free = both - math.comb(k + K, K) + kp * math.comb(k + K - 1, K - 1)
            total += count_A(kn, n) * (free + k * math.comb(kn + K - 1, K - 1))
    shape_flags: dict[Shape, tuple[Flag, ...]] = {}
    published = PUBLISHED_CENSUS.get((p, g))
    if published is not None:
        for v, ref in sorted(published[1].items()):
            count = count_kernel(pool_sizes, *v)[1]
            if ref != count:
                location = f"published census p={p} g={g}, shape {v}"
                shape_flags[v] = (Flag(location=location, paper_value=ref, computed_value=count),)
    return CountReport(
        p=p,
        g=g,
        total=total,
        shape_count=shapes,
        reference_total=None if published is None else published[0],
        shape_flags=shape_flags,
    )
