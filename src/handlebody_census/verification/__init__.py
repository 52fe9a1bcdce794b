"""Brute-force verification of the closed-form class counts.

States materialize the generator images that determine an epimorphism onto
the cyclic group; moves are the image-level actions of the realizable
homeomorphisms.  Counting normal forms and counting move orbits give two
checks on every closed-form count.  They are not independent: the normal
forms are listed case by case as the counts are, so their number equals
the closed form by construction.  The orbit count is the independent
check.  The three counts are the routes of :data:`.orbits.ROUTES`, in the
order :func:`compare` runs them and ``verify`` prints them: theorem,
canonical, orbit.

The package exports what the command line and the top-level API use;
everything else is imported from its module (``.canonical``, ``.moves``,
``.orbits``, ``.states``).
"""

from .canonical import DEFAULT_STATE_BUDGET, enumerate_canonical
from .orbits import ROUTES, Comparison, compare, orbit_count

__all__ = [
    "Comparison",
    "DEFAULT_STATE_BUDGET",
    "ROUTES",
    "compare",
    "enumerate_canonical",
    "orbit_count",
]
