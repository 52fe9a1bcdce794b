"""Brute-force verification of the closed-form class counts.

States materialize the generator images that determine an epimorphism onto
the cyclic group; moves are the image-level actions of the realizable
homeomorphisms.  Counting normal forms and counting move orbits give two
independent checks on every closed-form count.
"""

from .canonical import (
    DEFAULT_STATE_BUDGET,
    enumerate_canonical,
    low_order_p_values,
    low_unit_values,
    normal_form_count,
)
from .moves import (
    GenClass,
    GenRef,
    Move,
    MoveKind,
    apply_move,
    full_move_alphabet,
    generator_moves,
    inverse_move,
    slide_sources,
)
from .orbits import (
    Comparison,
    OrbitStats,
    Partition,
    check_move_closure,
    compare,
    orbit_count,
    orbit_partition,
)
from .states import (
    State,
    coordinate_domains,
    encode_state,
    flatten,
    format_state,
    is_order_p,
    is_unit,
    is_valid_state,
    iter_valid_states,
    order_p_values,
    parse_state,
    raw_state_count,
    state_template,
    unflatten,
    unit_values,
)

__all__ = [
    "Comparison",
    "DEFAULT_STATE_BUDGET",
    "GenClass",
    "GenRef",
    "Move",
    "MoveKind",
    "OrbitStats",
    "Partition",
    "State",
    "apply_move",
    "check_move_closure",
    "compare",
    "coordinate_domains",
    "encode_state",
    "enumerate_canonical",
    "flatten",
    "format_state",
    "full_move_alphabet",
    "generator_moves",
    "inverse_move",
    "is_order_p",
    "is_unit",
    "is_valid_state",
    "iter_valid_states",
    "low_order_p_values",
    "low_unit_values",
    "normal_form_count",
    "orbit_count",
    "orbit_partition",
    "order_p_values",
    "parse_state",
    "raw_state_count",
    "slide_sources",
    "state_template",
    "unflatten",
    "unit_values",
]
