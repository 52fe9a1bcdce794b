"""Exact counts of nondecreasing tuples over a finite alphabet.

Every class count in the census reduces to one combinatorial quantity: the
number of nondecreasing j-tuples drawn from a k-symbol alphabet.  Here it
is the stars-and-bars binomial ``count_A``; the paper's double sum, the
brute-force enumeration and the pinned-first-symbol refinement that
cross-check it live in the tests (``tests/oracles.py``).

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
    """Count of nondecreasing j-tuples over a k-symbol alphabet: C(k+j-1, j).

    The paper writes this as a double sum over triangular numbers; that sum
    is kept in ``tests/oracles.py``, where the tests hold this binomial to
    it and to explicit enumeration.
    """
    _require_kj(k, j)
    return math.comb(k + j - 1, j)


def count_A_list(k: int, top: int) -> list[int]:
    """``[count_A(k, j) for j in range(top + 1)]``, each entry from the one
    before by the one-step ratio A(k,j+1) = A(k,j) (k+j) / (j+1), a division
    that is exact: one product and one quotient by a small integer per
    entry, not one binomial each."""
    _require_kj(k, top)
    values = [1]
    for j in range(top):
        values.append(values[-1] * (k + j) // (j + 1))
    return values
