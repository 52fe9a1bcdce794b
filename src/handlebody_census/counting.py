"""Exact counts of nondecreasing tuples over a finite alphabet.

Every class count in the census reduces to one combinatorial quantity: the
number of nondecreasing j-tuples drawn from a k-symbol alphabet.  Three
routes to it live here:

* ``brute_count_nondecreasing``, explicit lexicographic enumeration, the
  oracle for everything else (meant for small k and j),
* ``count_A``, the closed form (piecewise for j <= 2, a binomial double sum
  for j >= 3),
* ``count_C_jl``, the refinement by pinned first symbol, computed through a
  prefix-sum recurrence; its column sums must reproduce ``count_A``.

All arithmetic is exact Python integers, so no count ever overflows.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import BudgetExceededError

#: Cap on brute-force enumeration, roughly seconds of work when hit.
DEFAULT_ENUMERATION_BUDGET = 5_000_000


def _require_kj(k: int, j: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"alphabet size k must be an integer >= 1, got {k!r}")
    if not isinstance(j, int) or isinstance(j, bool) or j < 0:
        raise ValueError(f"tuple length j must be an integer >= 0, got {j!r}")


def iter_nondecreasing(k: int, j: int):
    """Yield every nondecreasing j-tuple over {1..k} in lexicographic order."""
    _require_kj(k, j)
    return itertools.combinations_with_replacement(range(1, k + 1), j)


def brute_count_nondecreasing(
    k: int, j: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> int:
    """Count nondecreasing j-tuples over {1..k} by explicit enumeration.

    The empty tuple counts once for j=0.  Tuples are generated one at a time
    and never stored.  Raises :class:`BudgetExceededError` as soon as the
    running count passes ``budget``; a partial count is never returned.
    """
    count = 0
    for _ in iter_nondecreasing(k, j):
        count += 1
        if count > budget:
            raise BudgetExceededError(
                f"enumerating nondecreasing {j}-tuples over {k} symbols "
                f"exceeds the budget of {budget}",
                budget=budget,
            )
    return count


@functools.cache
def count_A(k: int, j: int) -> int:
    """Closed-form count of nondecreasing j-tuples over a k-symbol alphabet.

    Piecewise: 1 for the empty tuple, k for singletons, k(k+1)/2 for pairs,
    and for j >= 3 the double sum

        sum_{i=0}^{k-1}  C(j-3+i, j-3) * T(k-i)

    with T(x) = x(x+1)/2.  The result always equals the stars-and-bars value
    C(k+j-1, j), kept here as a redundant cross-check that raises
    :class:`AssertionError` on a mismatch, also under ``python -O``.
    """
    _require_kj(k, j)
    if j == 0:
        return 1
    if j == 1:
        return k
    if j == 2:
        return k * (k + 1) // 2
    total = 0
    for i in range(k):
        tri = (k - i) * (k - i + 1) // 2
        total += math.comb(j - 3 + i, j - 3) * tri
    binomial = math.comb(k + j - 1, j)
    if total != binomial:
        raise AssertionError(
            f"closed form gives {total} for k={k}, j={j}, stars and bars {binomial}"
        )
    return total


def count_C_jl(k: int, j: int, l: int) -> int:
    """Count nondecreasing j-tuples over {1..k} whose first entry is pinned.

    ``l`` selects the pinned first symbol counting down from the top of the
    alphabet: l=1 pins it to the largest symbol, l=k to the smallest, so the
    remaining entries may use exactly l symbols.  Computed by iterating the
    prefix-sum recurrence from the singleton base case (each length-1 class
    holds one tuple); summing over l recovers the unrestricted count.
    """
    _require_kj(k, j)
    if j < 1:
        raise ValueError(f"pinned-first-entry counts need j >= 1, got {j}")
    if not 1 <= l <= k:
        raise ValueError(f"l must lie in 1..{k}, got {l}")
    row = [0] + [1] * k  # row[u] = count at length 1, for every u
    for _ in range(j - 1):
        acc = 0
        nxt = [0] * (k + 1)
        for u in range(1, k + 1):
            acc += row[u]
            nxt[u] = acc
        row = nxt
    return row[l]
