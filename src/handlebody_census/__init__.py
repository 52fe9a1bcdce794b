"""Exact census of cyclic prime-squared symmetries of handlebodies.

For an odd prime p and a genus g, the package enumerates the admissible
quotient shapes, evaluates the closed-form count of symmetry classes for
each, and checks those counts with two brute-force oracles: direct
enumeration of normal-form image vectors, which follows the counts' own
case split, and orbit counting of the full state space under the
realizable move alphabet, the independent check.  Where the closed forms
and the oracles (or a published reference value) disagree, reports carry
the disagreement; nothing is silently corrected.

The top level exports the library API the README documents; everything else
is imported from its module (``counting``, ``tuples``, ``theorem_counts``,
``verification``).
"""

from .errors import BudgetExceededError, InadmissibleTupleError
from .theorem_counts import CountReport, census
from .tuples import Tuple5
from .verification import Comparison, compare

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Comparison",
    "CountReport",
    "InadmissibleTupleError",
    "Tuple5",
    "census",
    "compare",
]
