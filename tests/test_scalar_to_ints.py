"""scalar._to_ints: its int-only fast path against the general
int/Fraction path, as a Hypothesis property.  Derandomized, so every run
draws the same examples."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nicholslie.scalar import _to_ints


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.lists(st.integers(-10**30, 10**30), max_size=12))
def test_int_fast_path_matches_general_path(ints):
    num, den = _to_ints(ints)
    assert (num, den) == _to_ints([Fraction(c) for c in ints]) == (ints, 1)
    assert all(type(c) is int for c in num)
    # a bool is an int subclass: it takes the general path and comes out an int
    num, den = _to_ints(ints + [True, False])
    assert (num, den) == (ints + [1, 0], 1)
    assert all(type(c) is int for c in num)
