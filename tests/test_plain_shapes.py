"""The verification layer takes a shape as the plain tuple ``(r, s, t, m, n)``.

Every function that takes a shape gives the same result on the plain tuple
as on the equal :class:`Tuple5`, and the entry points check a plain shape
as :class:`Tuple5` does, so a malformed one raises ``ValueError``."""

import pytest
from bfs_oracle import assert_least_matches_bfs

from handlebody_census.theorem_counts import count_for_tuple
from handlebody_census.tuples import Tuple5, genus_of
from handlebody_census.verification.canonical import enumerate_canonical
from handlebody_census.verification.moves import generator_moves, slide_sources
from handlebody_census.verification.orbits import compare, orbit_count, orbit_partition
from handlebody_census.verification.states import coordinate_domains, iter_valid_states, raw_state_count

P = 3
#: Every case (st, r, m), both pair classes, and slides over handles, pairs
#: and single images.
SHAPES = [(0, 0, 0, 2, 0), (2, 0, 0, 0, 0), (1, 0, 0, 1, 0), (0, 1, 1, 0, 0), (1, 1, 0, 0, 1), (0, 0, 1, 0, 2)]


@pytest.mark.parametrize("plain", SHAPES, ids=map(str, SHAPES))
def test_a_plain_shape_gives_what_its_tuple5_gives(plain):
    shape = Tuple5(*plain)
    assert type(plain) is tuple
    assert raw_state_count(P, plain) == raw_state_count(P, shape)
    assert coordinate_domains(P, plain) == coordinate_domains(P, shape)
    assert list(iter_valid_states(P, plain)) == list(iter_valid_states(P, shape))
    assert [slide_sources(plain, i) for i in range(plain[0])] == [slide_sources(shape, i) for i in range(shape.r)]
    assert generator_moves(P, plain) == generator_moves(P, shape)
    assert len(enumerate_canonical(P, plain)) == len(enumerate_canonical(P, shape))
    for part in (orbit_partition(P, plain), orbit_partition(P, shape)):
        assert_least_matches_bfs(part, P, shape)
    assert compare(P, plain) == compare(P, shape)


ENTRY_POINTS = [genus_of, count_for_tuple, enumerate_canonical, orbit_partition, orbit_count, compare]


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "plain", [(-1, 0, 0, 2, 0), (0, 0, 0, 0, 5), (0, 0, 2, 0), (0, 0, 0, 2, 0, 1)], ids=str
)
def test_a_shape_tuple5_rejects_raises_at_every_entry_point(entry, plain):
    with pytest.raises(ValueError) as first:
        Tuple5._make(plain)
    with pytest.raises(ValueError) as got:
        entry(P, plain)
    assert str(got.value) == str(first.value)
