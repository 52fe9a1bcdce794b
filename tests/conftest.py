"""pytest rewrites the ``assert`` statements of the helper modules the tests
import, as it does the tests' own, so that they still raise under
``python -O``, which strips plain ``assert`` statements."""

import pytest

pytest.register_assert_rewrite("bfs_oracle", "census_reference", "oracles", "orbit_reference")
