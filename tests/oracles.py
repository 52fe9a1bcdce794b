"""Reference oracles that only the tests use.

Counting: the paper's piecewise double sum for the number of
nondecreasing tuples, their explicit enumeration, and their refinement by
pinned first symbol, computed through a prefix-sum recurrence whose
column sums must reproduce
:func:`handlebody_census.counting.count_A`, the binomial the package uses.

Census: the list-and-sort census that the streamed one replaced, with
every shape listed from the (t, n) compositions, sorted, and counted by
:func:`handlebody_census.theorem_counts.count_kernel` one at a time; and
the census totals of every genus up to a bound at once, as the
coefficients of a rational generating series built from truncated
products, with no shape, block or per-shape count.

States: validity from the order constraints and surjectivity, checked
image by image; the fixed-radix encoding whose order the orbit engine's
raw index must follow; and the per-state renderer of the ``canonical
--list`` dump format, with its parser.

Moves: the full alphabet, every single move with every amount, and the
closure check, which runs each of its moves over every combination of its
columns' raw domain values, as the orbit engine builds its move tables
over their representatives.
"""

import functools
import itertools
import math

import numpy as np

from handlebody_census.counting import _require_kj
from handlebody_census.errors import BudgetExceededError
from handlebody_census.theorem_counts import count_kernel, pools
from handlebody_census.tuples import Tuple5, require_odd_prime
from handlebody_census.verification.canonical import DEFAULT_STATE_BUDGET
from handlebody_census.verification.moves import (
    GenClass,
    Move,
    MoveKind,
    slide_sources,
)
from handlebody_census.verification import orbits
from handlebody_census.verification.orbits import _check_budget, _move_cols, _Space
from handlebody_census.verification.states import State, coordinate_domains, flatten, unflatten

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


def count_A_double_sum(k: int, j: int) -> int:
    """The paper's count of nondecreasing j-tuples over a k-symbol alphabet.

    Piecewise: 1 for the empty tuple, k for singletons, k(k+1)/2 for pairs,
    and for j >= 3 the double sum

        sum_{i=0}^{k-1}  C(j-3+i, j-3) * T(k-i)

    with T(x) = x(x+1)/2.  O(k) terms, so only for small alphabets.
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


def listed_shapes(p: int, g: int) -> list[tuple[int, int, int, int, int]]:
    """Every shape acting on genus g, listed and then sorted: for each (t, n)
    that leaves q*(r+s+m) a nonnegative multiple of q, every composition of
    r+s+m into (r, s, m)."""
    q = p * p
    out = []
    for t in range((g - 1 + q) // (q - 1) + 1):
        for n in range((g - 1 + q) // (q - p) + 1):
            rest = (g - 1) - (q - 1) * t - (q - p) * n + q  # equals q*(r+s+m)
            if rest < 0 or rest % q:
                continue
            ksum = rest // q
            if ksum == 0 and t == 0:
                continue
            out += [(r, s, t, ksum - r - s, n) for r in range(ksum + 1) for s in range(ksum - r + 1)]
    out.sort()
    return out


def listed_census(p: int, g: int) -> list[tuple]:
    """The census rows ``(r, s, t, m, n, case, count)`` of :func:`listed_shapes`,
    each counted by ``count_kernel``."""
    pool_sizes = pools(p)
    return [(*v, *count_kernel(pool_sizes, *v)) for v in listed_shapes(p, g)]


def census_totals_by_series(p: int, G: int) -> list[int]:
    """The census total of every genus g <= G, at index g (index 0 is 0).

    With q = p^2, k = p(p-1)/2, h = (p-1)/2, kp = (p-1)h and X = x^q,
    Y = x^(q-1), Z = x^(q-p), the total at genus g is the coefficient of
    x^(g-1+q) in

        (1-Z)^-h (1-X)^-1 [ (1-X)^-2k (1-Y)^-k - (1-X)^-k
                            + kp X (1-X)^-k + k X (1-X)^-h ].

    A shape (r, s, t, m, n) has degree q(r+s+m) + (q-1)t + (q-p)n; r
    contributes (1-X)^-1 and n with its A(h,n) contributes (1-Z)^-h.  The
    bracket is the rest: case st (every s, t, m less the s = t = 0 part),
    the pinned-pair term of m > 0 and the pinned-handle term of r > 0.
    Each factor (1-x^a)^-e has the coefficient C(e+j-1, j) at x^(aj).
    """
    require_odd_prime(p)
    q = p * p
    k = p * (p - 1) // 2
    h = (p - 1) // 2
    kp = (p - 1) * h
    top = G - 1 + q

    def inverse_power(a, e, scale=1, shift=0):
        """scale * x^shift * (1-x^a)^-e, truncated after x^top."""
        series = [0] * (top + 1)
        for j in range((top - shift) // a + 1):
            series[shift + a * j] = scale * math.comb(e + j - 1, j)
        return series

    def times(f, g):
        out = [0] * (top + 1)
        g_terms = [(j, y) for j, y in enumerate(g) if y]
        for i, x in enumerate(f):
            if x:
                for j, y in g_terms:
                    if i + j > top:
                        break
                    out[i + j] += x * y
        return out

    bracket = [
        a - b + c + d
        for a, b, c, d in zip(
            times(inverse_power(q, 2 * k), inverse_power(q - 1, k)),
            inverse_power(q, k),
            inverse_power(q, k, scale=kp, shift=q),
            inverse_power(q, h, scale=k, shift=q),
        )
    ]
    series = times(times(inverse_power(q - p, h), inverse_power(q, 1)), bracket)
    return [0] + series[q:]


def is_unit(x: int, p: int) -> bool:
    """Whether a residue in [0, p^2) generates the whole group."""
    return x % p != 0


def is_order_p(x: int, p: int) -> bool:
    """Whether a residue in [0, p^2) has exact order p."""
    return x % p == 0 and x % (p * p) != 0


def state_dims(state: State) -> tuple[int, int, int, int, int]:
    return (len(state.a), len(state.bc), len(state.d), len(state.ef), len(state.g))


def require_dims(v: Tuple5, state: State) -> None:
    dims = state_dims(state)
    if dims != v:
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


def full_move_alphabet(p: int, v: Tuple5) -> list[Move]:
    """Every single move: all interchanges, spins, twist amounts, slides.

    Twist amounts run over [0, p^2) for bc pairs and [0, p) for ef pairs;
    slide multipliers run over [0, p^2).  Amount 0 moves are identities and
    are included for completeness of the documented ranges.
    """
    q = p * p
    moves = []
    for cls, length in zip(GenClass, v):
        for i in range(length):
            for j in range(i + 1, length):
                moves.append(Move(MoveKind.PERMUTE, cls, i, index2=j))
    for cls, length in zip(GenClass, v):
        for i in range(length):
            moves.append(Move(MoveKind.SPIN, cls, i))
    for i in range(v.s):
        for amount in range(q):
            moves.append(Move(MoveKind.TWIST, GenClass.BC, i, amount=amount))
    for i in range(v.m):
        for amount in range(p):
            moves.append(Move(MoveKind.TWIST, GenClass.EF, i, amount=amount))
    for i in range(v.r):
        for src in slide_sources(v, i):
            for amount in range(q):
                moves.append(
                    Move(MoveKind.SLIDE, GenClass.A, i, amount=amount, source=src)
                )
    return moves


def check_move_closure(p: int, v: Tuple5, budget: int = DEFAULT_STATE_BUDGET) -> int:
    """Check that every alphabet move maps every valid state into the valid set.

    Each move is applied to every combination of the raw domain values
    (:func:`coordinate_domains`) of the columns it touches, which covers
    every state's restriction to them.  The move is the ``apply_move`` the
    orbit engine builds its tables from, looked up on
    ``handlebody_census.verification.orbits`` at call time.  Every image
    it writes must lie in its column's raw domain.  With s+t > 0 every
    state is surjective; otherwise no combination holding a unit may lose
    every unit.  That is exact, because every other column's domain holds
    a non-unit, so some valid state has no unit outside these columns.
    Raises :class:`AssertionError` on a failure; returns the number of
    (valid state, move) pairs covered.
    """
    require_odd_prime(p)
    raw = _check_budget(p, v, budget)
    doms = [np.asarray(dom) for dom in coordinate_domains(p, v)]
    space = _Space(p, v)  # for the columns each move touches
    need_unit = v.s + v.t == 0
    valid = raw
    if need_unit:
        valid -= math.prod(int((dom % p == 0).sum()) for dom in doms)
    alphabet = full_move_alphabet(p, v)
    for move in alphabet:
        cols = _move_cols(space, move)
        values = dict(zip(cols, np.meshgrid(*(doms[c] for c in cols), indexing="ij", sparse=True)))
        state = unflatten(v, [values.get(c) for c in range(len(doms))])
        moved = flatten(orbits.apply_move(p, state, move))
        updates = [(c, moved[c]) for c in cols if moved[c] is not values[c]]
        for col, new in updates:
            if not np.isin(new, doms[col]).all():
                raise AssertionError(
                    f"move {move} left the per-generator domain on column {col} of shape {v}"
                )
        if not need_unit:
            continue
        new_values = {**values, **dict(updates)}
        had_unit = functools.reduce(np.logical_or, [values[c] % p != 0 for c in cols])
        has_unit = functools.reduce(np.logical_or, [new_values[c] % p != 0 for c in cols])
        if (had_unit & ~has_unit).any():
            raise AssertionError(f"move {move} broke surjectivity for shape {v}")
    return valid * len(alphabet)


@functools.cache
def state_template(dims: tuple[int, int, int, int, int]) -> str:
    """The :func:`format_state` text of every state of shape ``dims`` as a
    ``%`` template over :func:`flatten` of the state."""
    r, s, t, m, n = dims
    return "|".join(",".join(["%d"] * k) for k in (r, 2 * s, t, 2 * m, n))


def format_state(state: State) -> str:
    """Dump syntax, one state at a time: comma-separated residues, classes
    separated by ``|``.

    Paired classes are flattened in order, e.g. ``b1,c1,b2,c2``.  Empty
    classes leave their section empty, so every state has five sections.
    """
    return state_template(state_dims(state)) % flatten(state)


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
