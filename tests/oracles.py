"""Reference oracles that only the tests use.

Counting: the paper's piecewise double sum for the number of
nondecreasing tuples, their explicit enumeration, and their refinement by
pinned first symbol, computed through a prefix-sum recurrence whose
column sums must reproduce
:func:`handlebody_census.counting.count_A`, the binomial the package uses.

Census: the list-and-sort census that the streamed one replaced, with
every shape listed from the (t, n) compositions, sorted, and counted by
:func:`handlebody_census.theorem_counts.count_kernel` one at a time; the
(t, n, K) blocks found by a residue walk of their own, mod p^2 where the
package's walk takes p and p-1; and the census totals of every genus up
to a bound at once, as the coefficients of a rational generating series
built from truncated products, with no shape, block or per-shape count.

Orbits: a closed form for the number of move orbits of a shape, which the
theorem's count differs from in case r and case m, and its totals over
every genus up to a bound, as the census totals are, from a series of the
same truncated products.

States: validity from the order constraints and surjectivity, checked
image by image; the fixed-radix encoding whose order the orbit engine's
raw index must follow; and the per-state renderer of the ``canonical
--list`` dump format, with its parser.

Moves: the full alphabet, every single move with every amount, and the
closure check, which runs each of its moves over every combination of its
columns' raw domain values, as the orbit engine builds its move tables
over their representatives.  The columns come from the column map of
``orbit_reference``, not from the engine's.
"""

import functools
import itertools
import math

import numpy as np
import orbit_reference as ref

from handlebody_census.counting import _require_kj, count_A
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
from handlebody_census.verification.orbits import _check_budget
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


def reference_genus_blocks(p: int, g: int) -> list[tuple[int, int, int]]:
    """``(t, n, K)`` for every (t, n) that some shape of genus g has, with
    K = r+s+m, found without the package's walk: for each n, t runs through
    one residue class mod q = p^2, as q-1 = -1 mod q, and K is what is left
    of q*K + (q-1)*t + (q-p)*n = g-1+q.  In order of n, then t."""
    require_odd_prime(p)
    q = p * p
    top = g - 1 + q  # q*K + (q-1)*t + (q-p)*n
    blocks = []
    for n in range(top // (q - p) + 1):
        rest = top - (q - p) * n
        for t in range(-rest % q, rest // (q - 1) + 1, q):
            K = (rest - (q - 1) * t) // q
            if K or t:
                blocks.append((t, n, K))
    return blocks


def listed_census(p: int, g: int) -> list[tuple]:
    """The census rows ``(r, s, t, m, n, case, count)`` of :func:`listed_shapes`,
    each counted by ``count_kernel``."""
    pool_sizes = pools(p)
    return [(*v, *count_kernel(pool_sizes, *v)) for v in listed_shapes(p, g)]


def _inverse_power(top: int, a: int, e: int, scale: int = 1, shift: int = 0) -> list[int]:
    """scale * x^shift * (1-x^a)^-e, truncated after x^top: the coefficient
    scale * C(e+j-1, j) at x^(shift + a*j)."""
    series = [0] * (top + 1)
    for j in range((top - shift) // a + 1):
        series[shift + a * j] = scale * math.comb(e + j - 1, j)
    return series


def _times(f: list[int], g: list[int]) -> list[int]:
    """The product of two series truncated after the same power, so truncated."""
    top = len(f) - 1
    out = [0] * (top + 1)
    g_terms = [(j, y) for j, y in enumerate(g) if y]
    for i, x in enumerate(f):
        if x:
            for j, y in g_terms:
                if i + j > top:
                    break
                out[i + j] += x * y
    return out


def _series_terms(p: int, G: int) -> tuple[int, int, int, int]:
    """q = p^2, k = p(p-1)/2, h = (p-1)/2, and the highest power g-1+q that
    a genus g <= G reads."""
    require_odd_prime(p)
    q = p * p
    return q, p * (p - 1) // 2, (p - 1) // 2, G - 1 + q


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
    q, k, h, top = _series_terms(p, G)
    kp = (p - 1) * h
    bracket = [
        a - b + c + d
        for a, b, c, d in zip(
            _times(_inverse_power(top, q, 2 * k), _inverse_power(top, q - 1, k)),
            _inverse_power(top, q, k),
            _inverse_power(top, q, k, scale=kp, shift=q),
            _inverse_power(top, q, h, scale=k, shift=q),
        )
    ]
    series = _times(_times(_inverse_power(top, q - p, h), _inverse_power(top, q, 1)), bracket)
    return [0] + series[q:]


def orbit_totals_by_series(p: int, G: int) -> list[int]:
    """The sum of :func:`orbit_exact_count` over the shapes of every genus
    g <= G, at index g (index 0 is 0).

    With q, k, h, X, Y and Z as in :func:`census_totals_by_series`, it is
    the coefficient of x^(g-1+q) in

        (1-Z)^-h (1-X)^-1 [ (1-X)^-2k (1-Y)^-k - (1-X)^-h ]
          + (1-Z)^-h (1-X)^-h [ h X + X^2 (1-X)^-1 ] + (k-h) X.

    The s+t > 0 part is the theorem's.  Summed over r, the shapes with
    s = t = 0 and a unit f give (1-X)^-1 [(1-X)^-k - (1-X)^-h] (1-Z)^-h,
    whose (1-X)^-k cancels the theorem's -(1-X)^-k.  H adds
    X [h (1-X)^-h (1-Z)^-h + (k-h)] at r = 1, where k replaces h only at
    m = n = 0, and X^2 (1-X)^-1 (1-X)^-h (1-Z)^-h at r >= 2.

    The theorem's series minus this one has no Y term, as the s+t > 0
    parts cancel, and X and Z are powers of x^p.  So the totals can differ
    only where p divides g-1+q, at g = 1 (mod p).  At g = 1 they agree:
    the one shape there, (0,0,0,1,0), has kp = k-h classes either way.
    """
    q, k, h, top = _series_terms(p, G)
    bracket = [
        a - b
        for a, b in zip(
            _times(_inverse_power(top, q, 2 * k), _inverse_power(top, q - 1, k)), _inverse_power(top, q, h)
        )
    ]
    handles = _inverse_power(top, q, 1, shift=2 * q)  # X^2 (1-X)^-1
    handles[q] += h  # h X
    ns = _inverse_power(top, q - p, h)
    series = [
        a + b
        for a, b in zip(
            _times(_times(ns, _inverse_power(top, q, 1)), bracket),
            _times(_times(ns, _inverse_power(top, q, h)), handles),
        )
    ]
    series[q] += k - h
    return [0] + series[q:]


def orbit_exact_count(p: int, v: tuple[int, int, int, int, int]) -> int:
    """The number of move orbits of the valid states of a shape, in closed
    form, with k = p(p-1)/2 and h = (p-1)/2 as in ``pools`` and A =
    ``count_A``:

    * s+t > 0: the theorem's product, A(k,s) A(k,t) A(k,m) A(h,n);
    * s = t = 0: (A(k,m) - A(h,m)) A(h,n) + H A(h,m) A(h,n), where H is 0
      when r = 0, k when r = 1 and m = n = 0, h when r = 1 and m+n > 0,
      and 1 when r >= 2.

    Why it holds, in a sketch.  Twists take each bc pair to (b, 0) and each
    ef pair to (e, f mod p).  Spins then pair the +- classes, so an ef pair
    is one of k classes, and h of those have f = 0 mod p (no unit).

    * If some f is a unit, slides over it zero every handle.  These orbits
      are the multisets of m pair classes that hold a unit: A(k,m) - A(h,m).
    * Otherwise some handle is a unit.  With r >= 2, slides between
      handles act on the handle vector by elementary matrices over Z/p^2,
      which act transitively on unimodular vectors, since Z/p^2 is local
      (stable rank 1: Bass, "K-theory and stable algebra", Publ. IHES 22,
      1964).  So there is one class.
    * With r = 1, the handle moves by pZ/p^2, which any e or g generates,
      and by sign, which gives h classes.  With nothing to slide over, the
      classes are the units up to sign: k classes.

    With s+t > 0 a b or d image is a unit, and the classes are the
    theorem's.  The theorem differs where s = t = 0: its pinned-pair
    branch kp A(k,m-1) counts a multiset with j distinct unit classes j
    times, and its pinned-handle branch k A(h,m) A(h,n) always takes H = k.
    """
    k, h, _ = pools(p)
    r, s, t, m, n = v
    if s + t:
        return count_A(k, s) * count_A(k, t) * count_A(k, m) * count_A(h, n)
    if r >= 2:
        H = 1
    elif r == 1:
        H = h if m + n else k
    else:
        H = 0
    return (count_A(k, m) - count_A(h, m) + H * count_A(h, m)) * count_A(h, n)


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
    need_unit = v.s + v.t == 0
    valid = raw
    if need_unit:
        valid -= math.prod(int((dom % p == 0).sum()) for dom in doms)
    alphabet = full_move_alphabet(p, v)
    for move in alphabet:
        cols = ref.entry_cols(v, move.cls, move.index)
        if move.kind is MoveKind.PERMUTE:
            cols += ref.entry_cols(v, move.cls, move.index2)
        elif move.kind is MoveKind.SLIDE:
            cols.append(ref.ref_col(v, move.source))
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
