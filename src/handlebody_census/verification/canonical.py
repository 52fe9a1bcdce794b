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
per-class pools.  :class:`NormalForms` keeps the pools, not the product:
its length is the sum of the pool-size products, its iteration builds the
states, and its dump lines join per-entry texts without building any.

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
from ..tuples import CaseTag, Tuple5, genus_of, require_odd_prime
from .states import State

DEFAULT_STATE_BUDGET = 1_000_000


def low_unit_values(p: int) -> tuple[int, ...]:
    """Units mod p^2 in [1, (p^2-1)/2], ascending: one per negation pair."""
    q = p * p
    return tuple(x for x in range(1, (q - 1) // 2 + 1) if x % p)


def low_order_p_values(p: int) -> tuple[int, ...]:
    """Multiples of p in [p, p(p-1)/2], ascending: one per negation pair."""
    return tuple(range(p, ((p - 1) // 2) * p + 1, p))


# How each class's image tuple reads as a flat run of residues: bc and ef
# hold (finite, free) pairs.
_PAIRS = itertools.chain.from_iterable
_FLATTEN = (iter, _PAIRS, iter, _PAIRS, iter)


class NormalForms:
    """The normal forms of one shape, as branches of five per-class pools.

    Each branch is a tuple of five pools, one per class (a, bc, d, ef, g),
    each a list of that class's image tuples in lexicographic order.  The
    forms are the branches' products, branch by branch, in image-vector
    order.  ``len()`` is counted from the pool sizes; iteration yields
    :class:`State` objects; :meth:`lines` gives the dump text of each form
    without building any.
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

    def lines(self) -> list[str]:
        """The dump text of every form, in iteration order (see README,
        "State dump format"): each pool entry is rendered once, and a line
        is the ``|``-join of one text per class."""
        out: list[str] = []
        for branch in self.branches:
            texts = [
                [",".join(map(str, flat(entry))) for entry in pool]
                for pool, flat in zip(branch, _FLATTEN)
            ]
            out += map("|".join, itertools.product(*texts))
        return out


def enumerate_canonical(
    p: int, v: Tuple5, budget: int = DEFAULT_STATE_BUDGET
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
    form.  Propagates the genus error for inadmissible shapes.
    """
    require_odd_prime(p)
    genus_of(p, v)  # raises for shapes that force genus < 1

    def refuse(required):
        return BudgetExceededError(
            f"canonical enumeration for p={p}, shape {v} exceeds the "
            f"budget of {budget} states",
            required=required,
            budget=budget,
        )

    case, required = count_kernel(pools(p), *v.as_tuple())
    if required > budget:
        raise refuse(required)

    units = low_unit_values(p)
    orderp = low_order_p_values(p)
    pairs = tuple((e, f) for e in orderp for f in range(p))
    cwr = itertools.combinations_with_replacement
    empty = [()]
    zeros_a = [(0,) * v.r]
    g_sets = list(cwr(orderp, v.n))

    def pinned_pair_branch(a_sets):
        # Some free pair image is a unit: pin the first pair, sort the rest.
        if not v.m:
            return []
        ef_sets = [
            ((e, f),) + rest for e in orderp for f in range(1, p) for rest in cwr(pairs, v.m - 1)
        ]
        return [(a_sets, empty, empty, ef_sets, g_sets)]

    if case is CaseTag.CASE_ST:
        bc_sets = [tuple((b, 0) for b in bs) for bs in cwr(units, v.s)]
        branches = [(zeros_a, bc_sets, list(cwr(units, v.t)), list(cwr(pairs, v.m)), g_sets)]
    elif case is CaseTag.CASE_R:
        # Branch 1 zeroes the handles; branch 2 (no free pair image is a
        # unit) pins the first handle image to a unit instead.
        a_pinned = [(a1,) + (0,) * (v.r - 1) for a1 in units]
        ef_zero = [tuple((e, 0) for e in es) for es in cwr(orderp, v.m)]
        branches = pinned_pair_branch(zeros_a) + [(a_pinned, empty, empty, ef_zero, g_sets)]
    else:  # CASE_M: the pinned-pair branch alone, with no handles to zero
        branches = pinned_pair_branch(empty)

    forms = NormalForms(branches)
    if len(forms) > budget:
        raise refuse(len(forms))
    return forms
