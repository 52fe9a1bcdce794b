"""Counting layer: oracle equivalence, recurrence, partition, identities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_count_nondecreasing,
    count_A_double_sum,
    count_C_jl,
    iter_nondecreasing,
)

from handlebody_census.counting import count_A
from handlebody_census.errors import BudgetExceededError


@pytest.mark.parametrize("k,j,expected", [(5, 1, 5), (7, 0, 1), (3, 3, 10)])
def test_brute_examples(k, j, expected):
    assert brute_count_nondecreasing(k, j) == expected


@pytest.mark.parametrize("k,j,expected", [(10, 2, 55), (10, 0, 1), (4, 5, 56)])
def test_count_A_examples(k, j, expected):
    assert count_A(k, j) == expected


@pytest.mark.parametrize("k,j,l,expected", [(3, 2, 2, 2), (5, 1, 3, 1), (3, 3, 3, 6)])
def test_count_C_jl_examples(k, j, l, expected):
    assert count_C_jl(k, j, l) == expected


def test_closed_form_matches_oracle():
    for k in range(1, 9):
        for j in range(0, 7):
            assert count_A(k, j) == brute_count_nondecreasing(k, j), (k, j)


def test_column_sums_recover_count_A():
    for k in range(1, 9):
        for j in range(1, 7):
            assert sum(count_C_jl(k, j, l) for l in range(1, k + 1)) == count_A(k, j)


def test_prefix_sum_recurrence():
    for k in range(1, 9):
        for j in range(1, 6):
            for l in range(1, k + 1):
                assert count_C_jl(k, j + 1, l) == sum(
                    count_C_jl(k, j, u) for u in range(1, l + 1)
                )


def test_pinned_first_entry_classes_partition_the_enumeration():
    # Group the enumerated tuples by their first entry: the classes are
    # pairwise disjoint by construction, must cover everything, and must
    # have exactly the counted sizes.
    for k in (3, 5):
        for j in (1, 2, 3, 4):
            groups = {}
            for tup in iter_nondecreasing(k, j):
                groups.setdefault(k - tup[0] + 1, []).append(tup)
            assert sum(len(v) for v in groups.values()) == count_A(k, j)
            for l in range(1, k + 1):
                assert len(groups.get(l, [])) == count_C_jl(k, j, l), (k, j, l)


def test_binomial_matches_the_papers_double_sum():
    for k in range(1, 61):
        for j in range(0, 13):
            assert count_A(k, j) == count_A_double_sum(k, j), (k, j)


def test_stars_and_bars_identity_confirmed_by_oracle():
    for k in range(1, 9):
        for j in range(0, 7):
            binomial = math.comb(k + j - 1, j)
            assert brute_count_nondecreasing(k, j) == binomial
            assert count_A(k, j) == binomial


def test_monotonicity():
    for k in range(1, 8):
        for j in range(1, 6):
            assert count_A(k, j) <= count_A(k + 1, j)
            assert count_A(k, j) <= count_A(k, j + 1)


def test_empty_tuple_convention():
    for k in (1, 4, 9):
        assert count_A(k, 0) == 1
        assert brute_count_nondecreasing(k, 0) == 1


def test_brute_budget_error_is_explicit():
    with pytest.raises(BudgetExceededError) as excinfo:
        brute_count_nondecreasing(8, 6, budget=10)
    assert excinfo.value.budget == 10


@pytest.mark.parametrize("k,j", [(0, 1), (-1, 0), (3, -1)])
def test_preconditions(k, j):
    with pytest.raises(ValueError):
        count_A(k, j)
    with pytest.raises(ValueError):
        count_A_double_sum(k, j)
    with pytest.raises(ValueError):
        brute_count_nondecreasing(k, j)


def test_count_C_jl_preconditions():
    with pytest.raises(ValueError):
        count_C_jl(3, 0, 1)
    with pytest.raises(ValueError):
        count_C_jl(3, 2, 0)
    with pytest.raises(ValueError):
        count_C_jl(3, 2, 4)


@settings(deadline=None, max_examples=120)
@given(k=st.integers(1, 9), j=st.integers(0, 6))
def test_three_routes_agree(k, j):
    assert (
        count_A(k, j)
        == count_A_double_sum(k, j)
        == brute_count_nondecreasing(k, j)
        == math.comb(k + j - 1, j)
    )
