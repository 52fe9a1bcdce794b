"""Reference orbit labels by breadth-first search over ``apply_move``.

The production engine is min-label union-find on the coset quotient of
the state space (:func:`handlebody_census.orbit_partition`).  This oracle
reaches the same partition from individual raw states, so the tests can
compare the two state by state.  It steps through the paper's generating
set and the inverses of its moves, built here from the public move
functions, not through the engine's own move list.
"""

import numpy as np

from handlebody_census.verification.moves import apply_move, generator_moves, inverse_move
from handlebody_census.verification.states import iter_valid_states


def generators_and_inverses(p, v) -> list:
    """:func:`generator_moves` followed by the inverses it does not hold."""
    moves = generator_moves(p, v)
    for inverse in [inverse_move(p, move) for move in moves]:
        if inverse not in moves:
            moves.append(inverse)
    return moves


def bfs_labels(p, v) -> np.ndarray:
    """Orbit label of every valid state, in :func:`iter_valid_states` order.

    Seeds are taken in increasing state order, so each seed is the least
    index of its component, which is how the engine labels orbits too.
    """
    states = list(iter_valid_states(p, v))
    index = {state: i for i, state in enumerate(states)}
    moves = generators_and_inverses(p, v)
    labels = np.full(len(states), -1, dtype=np.int64)
    for seed, start in enumerate(states):
        if labels[seed] >= 0:
            continue
        labels[seed] = seed
        frontier = [start]
        while frontier:
            next_frontier = []
            for state in frontier:
                for move in moves:
                    succ = apply_move(p, state, move)
                    j = index.get(succ)
                    if j is None:
                        raise AssertionError(f"move {move} escaped the valid state space")
                    if labels[j] < 0:
                        labels[j] = seed
                        next_frontier.append(succ)
            frontier = next_frontier
    return labels


def assert_least_matches_bfs(part, p, v) -> None:
    """Hold a partition to :func:`bfs_labels`, label for label: every valid
    state's ``part.least`` is the state its BFS label indexes."""
    states = list(iter_valid_states(p, v))
    assert part.valid_count == len(states), (p, v)
    for state, label in zip(states, bfs_labels(p, v).tolist()):
        assert part.least(state) == states[label], (p, v, state)
