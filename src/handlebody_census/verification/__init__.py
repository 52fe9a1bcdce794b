"""Brute-force verification of the closed-form class counts.

States materialize the generator images that determine an epimorphism onto
the cyclic group; moves are the image-level actions of the realizable
homeomorphisms.  Counting normal forms and counting move orbits give two
independent checks on every closed-form count.

The package exports what the command line and the top-level API use;
everything else is imported from its module (``.canonical``, ``.moves``,
``.orbits``, ``.states``).
"""

from .canonical import DEFAULT_STATE_BUDGET, enumerate_canonical
from .orbits import Comparison, compare, orbit_count

__all__ = [
    "Comparison",
    "DEFAULT_STATE_BUDGET",
    "compare",
    "enumerate_canonical",
    "orbit_count",
]
