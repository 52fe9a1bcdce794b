"""Normal-form enumeration per shape class.

The normalized properties pin every image into an explicit finite range:
handle images are zeroed (or, in one branch, the first is pinned to a
half-range unit), finite-order images take one representative per negation
pair from the lower half-range, free partners are reduced modulo the order
of their finite partner, and sortable entries are sorted nondecreasingly.
Enumerating those ranges directly lists exactly one state per normal form,
so their number is the one the closed-form counts claim to compute;
checking that equality is the point of the comparison harness.

A shape's normal forms are a few branches, each the product of five
per-class pools.  The bc, d and g pools are common to every branch; the
branches differ only in the handle and ef pools, as the closed-form count
A(k,s) A(k,t) M(m) A(kn,n) differs by case only in M, but no code is
shared with the count.  :class:`NormalForms` keeps the pools, not the
product: its length is the sum of the pool-size products, its iteration
builds the states, and its dump text joins per-entry texts without
building any state.  A branch's dump lines are split at its last pool with
more than one entry into a head, one per combination of the pools before
it, and a tail, rendered once per branch; :meth:`NormalForms.joined` joins
each head's lines in one ``str.join``, so a listing holds no string per
form, and :meth:`NormalForms.lines` adds head and tail.

Pair ordering: (e, f) pairs are sorted lexicographically.  In the branch
that pins a unit free image, the first pair is held fixed and only the
remaining pairs are sorted.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Iterator

from ..errors import BudgetExceededError
from ..theorem_counts import count_kernel, pools
from ..tuples import CaseTag, Shape, Tuple5, genus_of, require_odd_prime
from .states import LAYOUT, State

DEFAULT_STATE_BUDGET = 1_000_000


def low_unit_values(p: int) -> tuple[int, ...]:
    """Units mod p^2 in [1, (p^2-1)/2], ascending: one per negation pair."""
    q = p * p
    return tuple(x for x in range(1, (q - 1) // 2 + 1) if x % p)


def low_order_p_values(p: int) -> tuple[int, ...]:
    """Multiples of p in [p, p(p-1)/2], ascending: one per negation pair."""
    return tuple(range(p, ((p - 1) // 2) * p + 1, p))


# How each class's image tuple reads as a flat run of residues: a class of
# pairs is chained.
_FLATTEN = [itertools.chain.from_iterable if len(kinds) > 1 else iter for kinds in LAYOUT]


class NormalForms:
    """The normal forms of one shape, as branches of five per-class pools.

    Each branch is a tuple of five pools, one per class (a, bc, d, ef, g),
    each a list of that class's image tuples in lexicographic order.  The
    forms are the branches' products, branch by branch, in image-vector
    order.  ``len()`` is counted from the pool sizes; iteration yields
    :class:`State` objects; :meth:`lines` and :meth:`joined` give the dump
    text of the forms without building any, from its split into heads and
    tails (:meth:`split`).
    """

    __slots__ = ("branches", "_count")

    def __init__(self, branches):
        self.branches = branches
        self._count = sum(math.prod(map(len, branch)) for branch in branches)
        if self._count > sys.maxsize:
            # len() cannot report it, and no listing could hold it
            raise MemoryError(f"{self._count} normal forms are more than a sequence can index")

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[State]:
        make = functools.partial(tuple.__new__, State)
        for branch in self.branches:
            yield from map(make, itertools.product(*branch))

    def split(self) -> Iterator[tuple[list[str], list[str]]]:
        """Per branch that holds forms, its dump lines split in two:
        ``(heads, tails)``, each line a head followed by a tail, heads
        outermost.

        A branch splits at its last pool with more than one entry (its
        first pool when there is none).  A head is the texts of the pools
        before the split, one product entry each, ended by ``|``; a tail is
        one text of the split pool followed by the texts of the one-entry
        pools after it.  Each pool entry is rendered once.
        """
        for branch in self.branches:
            if not all(map(len, branch)):
                continue
            texts = [
                [",".join(map(str, flat(entry))) for entry in pool]
                for pool, flat in zip(branch, _FLATTEN)
            ]
            cut = max((i for i, pool in enumerate(texts) if len(pool) > 1), default=0)
            heads = [head + "|" for head in map("|".join, itertools.product(*texts[:cut]))] if cut else [""]
            rest = "".join("|" + pool[0] for pool in texts[cut + 1 :])
            yield heads, [text + rest for text in texts[cut]]

    def lines(self) -> list[str]:
        """The dump text of every form, in iteration order (see README,
        "State dump format")."""
        out: list[str] = []
        for heads, tails in self.split():
            for head in heads:
                out += map(head.__add__, tails)
        return out

    def joined(self, sep: str) -> str:
        """``sep.join(self.lines())``, one join per head instead of one
        string per form."""
        return sep.join(
            head + (sep + head).join(tails) for heads, tails in self.split() for head in heads
        )


def enumerate_canonical(
    p: int, v: Shape, budget: int = DEFAULT_STATE_BUDGET
) -> NormalForms:
    """The normal forms of an admissible shape, as per-class pools.

    Each branch of the shape's case is a product of five prebuilt pools,
    one per class (a, bc, d, ef, g), each pool in lexicographic order.  The
    product runs in image-vector order, and in case r the pinned-pair branch
    (every handle image 0) precedes the pinned-handle branch (first handle
    image a unit), so the forms come in image-vector order, with no sort,
    and the output is deterministic.

    Raises :class:`BudgetExceededError` when there are more than ``budget``
    normal forms: from the closed-form count (:func:`count_kernel`) before
    any pool is built, and again from the pool sizes once the pools are
    built, before any state is produced, so a wrong closed form can only
    show as a refusal.  The returned length never comes from the closed
    form.  ``v`` is checked as :class:`Tuple5` checks it, so a plain tuple
    works and one with components it rejects raises ``ValueError``; an
    inadmissible one raises the genus error.
    """
    require_odd_prime(p)
    v = Tuple5._make(v)
    genus_of(p, v)  # raises for shapes that force genus < 1
    r, s, t, m, n = v

    def refuse(required):
        return BudgetExceededError(
            f"canonical enumeration for p={p}, shape {v} exceeds the "
            f"budget of {budget} states",
            required=required,
            budget=budget,
        )

    case, required = count_kernel(pools(p), *v)
    if required > budget:
        raise refuse(required)

    units = low_unit_values(p)
    orderp = low_order_p_values(p)
    pairs = tuple((e, f) for e in orderp for f in range(p))
    cwr = itertools.combinations_with_replacement
    # Common to every branch; a class with no entries has the one entry ().
    bc_sets = [tuple((b, 0) for b in bs) for bs in cwr(units, s)]
    d_sets = list(cwr(units, t))
    g_sets = list(cwr(orderp, n))
    zeros_a = [(0,) * r]
    if case is CaseTag.CASE_ST:
        a_ef = [(zeros_a, list(cwr(pairs, m)))]
    else:
        # Pinned pair (handles 0): the first free pair image is a unit, the
        # rest are sorted; with m = 0 there is none.  Pinned handle, in
        # case r (no free pair image a unit): the first handle is a unit.
        a_ef = []
        if m:
            ef_pinned = [((e, f),) + rest for e in orderp for f in range(1, p) for rest in cwr(pairs, m - 1)]
            a_ef.append((zeros_a, ef_pinned))
        if case is CaseTag.CASE_R:
            a_pinned = [(a1,) + (0,) * (r - 1) for a1 in units]
            a_ef.append((a_pinned, [tuple((e, 0) for e in es) for es in cwr(orderp, m)]))
    branches = [(a_sets, bc_sets, d_sets, ef_sets, g_sets) for a_sets, ef_sets in a_ef]

    forms = NormalForms(branches)
    if len(forms) > budget:
        raise refuse(len(forms))
    return forms
