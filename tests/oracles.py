"""Reference oracles that only the tests use.

Counting: explicit enumeration of nondecreasing tuples, the check on the
closed form :func:`handlebody_census.counting.count_A`, and their
refinement by pinned first symbol, computed through a prefix-sum
recurrence whose column sums must reproduce ``count_A``.

States: validity from the order constraints and surjectivity, checked
image by image; the fixed-radix encoding whose order the orbit engine's
raw index must follow; and the parser of the ``canonical --list`` dump
format.
"""

import itertools

from handlebody_census.counting import _require_kj
from handlebody_census.errors import BudgetExceededError
from handlebody_census.tuples import Tuple5, require_odd_prime
from handlebody_census.verification.states import State, flatten, state_dims

#: Cap on brute-force enumeration, roughly seconds of work when hit.
DEFAULT_ENUMERATION_BUDGET = 5_000_000


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


def is_unit(x: int, p: int) -> bool:
    """Whether a residue in [0, p^2) generates the whole group."""
    return x % p != 0


def is_order_p(x: int, p: int) -> bool:
    """Whether a residue in [0, p^2) has exact order p."""
    return x % p == 0 and x % (p * p) != 0


def require_dims(v: Tuple5, state: State) -> None:
    dims = state_dims(state)
    if dims != v.as_tuple():
        raise ValueError(f"state dimensions {dims} do not match shape {v}")


def is_valid_state(p: int, v: Tuple5, state: State) -> bool:
    """Order constraints plus surjectivity (at least one image is a unit)."""
    require_odd_prime(p)
    require_dims(v, state)
    q = p * p
    images = flatten(state)
    if any(not 0 <= x < q for x in images):
        return False
    if any(not is_unit(b, p) for b, _ in state.bc):
        return False
    if any(not is_unit(d, p) for d in state.d):
        return False
    if any(not is_order_p(e, p) for e, _ in state.ef):
        return False
    if any(not is_order_p(z, p) for z in state.g):
        return False
    return any(is_unit(x, p) for x in images)


def encode_state(p: int, v: Tuple5, state: State) -> int:
    """Fixed-radix encoding: each image a digit base p^2, first image highest.

    Encoded order is lexicographic order on the image vector; the smallest
    encoded state in an orbit serves as the orbit's representative.
    """
    require_dims(v, state)
    q = p * p
    value = 0
    for x in flatten(state):
        if not 0 <= x < q:
            raise ValueError(f"image {x} outside [0, {q})")
        value = value * q + x
    return value


def parse_state(text: str) -> State:
    """Inverse of :func:`format_state`."""
    sections = text.strip().split("|")
    if len(sections) != 5:
        raise ValueError(f"expected five |-separated sections, got {len(sections)}")

    def ints(section: str) -> list[int]:
        return [int(x) for x in section.split(",")] if section else []

    def pairs(section: str, label: str) -> tuple[tuple[int, int], ...]:
        vals = ints(section)
        if len(vals) % 2:
            raise ValueError(f"{label} section must hold whole pairs, got {section!r}")
        return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(len(vals) // 2))

    return State(
        a=tuple(ints(sections[0])),
        bc=pairs(sections[1], "bc"),
        d=tuple(ints(sections[2])),
        ef=pairs(sections[3], "ef"),
        g=tuple(ints(sections[4])),
    )
