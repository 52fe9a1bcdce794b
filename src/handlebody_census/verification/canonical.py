"""Normal-form enumeration per shape class.

The normalized properties pin every image into an explicit finite range:
handle images are zeroed (or, in one branch, the first is pinned to a
half-range unit), finite-order images take one representative per negation
pair from the lower half-range, free partners are reduced modulo the order
of their finite partner, and sortable entries are sorted nondecreasingly.
Enumerating those ranges directly lists exactly one state per normal form,
so the list length is the number the closed-form counts claim to compute;
checking that equality is the point of the comparison harness.

Pair ordering: (e, f) pairs are sorted lexicographically.  In the branch
that pins a unit free image, the first pair is held fixed and only the
remaining pairs are sorted.
"""

from __future__ import annotations

import functools
import itertools
import math

from ..errors import BudgetExceededError
from ..tuples import CaseTag, Tuple5, classify, genus_of, require_odd_prime
from .states import State

DEFAULT_STATE_BUDGET = 1_000_000


def low_unit_values(p: int) -> tuple[int, ...]:
    """Units mod p^2 in [1, (p^2-1)/2], ascending: one per negation pair."""
    q = p * p
    return tuple(x for x in range(1, (q - 1) // 2 + 1) if x % p)


def low_order_p_values(p: int) -> tuple[int, ...]:
    """Multiples of p in [p, p(p-1)/2], ascending: one per negation pair."""
    return tuple(range(p, ((p - 1) // 2) * p + 1, p))


def normal_form_count(p: int, v: Tuple5) -> int:
    """How many states :func:`enumerate_canonical` emits, without building any.

    Each loop of the enumeration draws a multiset of size j from a pool of
    N values, which it does C(N+j-1, j) times.  The pool sizes are those of
    the enumeration's own pools: p(p-1)/2 half-range units, h = (p-1)/2
    half-range order-p values, hp (order-p, any) pairs and h(p-1) pinned
    pairs.  Used to refuse an over-budget shape before any pool of size p^2
    exists; the enumeration's result is still counted by its length.
    """
    require_odd_prime(p)

    def multisets(pool: int, j: int) -> int:
        return math.comb(pool + j - 1, j)

    r, s, t, m, n = v.as_tuple()
    h = (p - 1) // 2
    units, pairs, pinned = p * h, h * p, h * (p - 1)
    case = classify(v)
    if case is CaseTag.CASE_ST:
        return multisets(units, s) * multisets(units, t) * multisets(pairs, m) * multisets(h, n)
    pinned_pair = pinned * multisets(pairs, m - 1) * multisets(h, n) if m else 0
    if case is CaseTag.CASE_R:
        return pinned_pair + units * multisets(h, m) * multisets(h, n)
    return pinned_pair


def enumerate_canonical(
    p: int, v: Tuple5, budget: int = DEFAULT_STATE_BUDGET
) -> list[State]:
    """List the normal-form states of an admissible shape.

    Each branch of the shape's case is a product of five prebuilt pools,
    one per class (a, bc, d, ef, g), each pool in lexicographic order.  The
    product runs in image-vector order, and in case r the pinned-pair branch
    (every handle image 0) precedes the pinned-handle branch (first handle
    image a unit), so states are emitted in image-vector order, with no
    sort, and the output is deterministic.

    Raises :class:`BudgetExceededError` when more than ``budget`` states
    would be produced: from :func:`normal_form_count` before any pool is
    built, and again, as a guard, once the products pass ``budget``.
    Propagates the genus error for inadmissible shapes.
    """
    require_odd_prime(p)
    genus_of(p, v)  # raises for shapes that force genus < 1

    def refuse(required=None):
        return BudgetExceededError(
            f"canonical enumeration for p={p}, shape {v} exceeds the "
            f"budget of {budget} states",
            required=required,
            budget=budget,
        )

    required = normal_form_count(p, v)
    if required > budget:
        raise refuse(required)

    case = classify(v)
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

    product = itertools.chain.from_iterable(itertools.product(*branch) for branch in branches)
    states = list(map(functools.partial(tuple.__new__, State), itertools.islice(product, budget + 1)))
    if len(states) > budget:
        raise refuse()
    return states
