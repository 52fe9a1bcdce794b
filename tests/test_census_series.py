"""The census totals against the rational generating series of
``tests/oracles.py``: an outside check on the per-shape factorisation
A(k,s) A(k,t) M(m) A(kn,n) and on the Chu-Vandermonde collapse of
:func:`~handlebody_census.theorem_counts.census`, at every genus up to a
bound, far past where the listed census can run.  The orbit-form totals
against their own series, and where the two totals part."""

import pytest
from oracles import census_totals_by_series, orbit_exact_count, orbit_totals_by_series

from handlebody_census.theorem_counts import census
from handlebody_census.tuples import admissible_tuples, shape_count


@pytest.mark.parametrize("p, G", [(3, 400), (5, 600), (7, 600)])
def test_census_totals_equal_the_series_coefficients(p, G):
    series = census_totals_by_series(p, G)
    assert [census(p, g).total for g in range(1, G + 1)] == series[1:]



@pytest.mark.parametrize("p, G", [(3, 150), (5, 600), (7, 600)])
def test_orbit_totals_equal_the_orbit_form_summed_over_the_shapes(p, G):
    series = orbit_totals_by_series(p, G)
    summed = [sum(orbit_exact_count(p, v) for v in admissible_tuples(p, g)) for g in range(1, G + 1)]
    assert summed == series[1:]


@pytest.mark.parametrize("p, G", [(3, 400), (5, 600), (7, 600)])
def test_the_theorem_and_orbit_totals_differ_at_the_genera_past_1_that_are_1_mod_p(p, G):
    theorem, orbit = census_totals_by_series(p, G), orbit_totals_by_series(p, G)
    differ = [g for g in range(1, G + 1) if theorem[g] != orbit[g]]
    assert differ == [g for g in range(2, G + 1) if g % p == 1 and shape_count(p, g)]
    assert theorem[1] == orbit[1] > 0
