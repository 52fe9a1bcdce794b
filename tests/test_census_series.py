"""The census totals against the rational generating series of
``tests/oracles.py``: an outside check on the per-shape factorisation
A(k,s) A(k,t) M(m) A(kn,n) and on the Chu-Vandermonde collapse of
:func:`~handlebody_census.theorem_counts.census`, at every genus up to a
bound, far past where the listed census can run."""

import pytest
from oracles import census_totals_by_series

from handlebody_census.theorem_counts import census


@pytest.mark.parametrize("p, G", [(3, 400), (5, 600), (7, 600)])
def test_census_totals_equal_the_series_coefficients(p, G):
    series = census_totals_by_series(p, G)
    assert [census(p, g).total for g in range(1, G + 1)] == series[1:]

