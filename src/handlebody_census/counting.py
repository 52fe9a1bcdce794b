"""Exact counts of nondecreasing tuples over a finite alphabet.

Every class count in the census reduces to one combinatorial quantity: the
number of nondecreasing j-tuples drawn from a k-symbol alphabet.  Its
closed form, ``count_A``, lives here; the brute-force enumeration and the
pinned-first-symbol refinement that cross-check it live in the tests.

All arithmetic is exact Python integers, so no count ever overflows.
"""

from __future__ import annotations

import functools
import math


def _require_kj(k: int, j: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"alphabet size k must be an integer >= 1, got {k!r}")
    if not isinstance(j, int) or isinstance(j, bool) or j < 0:
        raise ValueError(f"tuple length j must be an integer >= 0, got {j!r}")


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
