"""Classical brackets on ints: every full bracketing's word -> int map
against the per-node FreeElement oracle (tests/bracket_oracle.py), and
its zero test against is_zero_in_nichols, as a derandomized Hypothesis
property."""

import pytest

from nicholslie.freealg import MINUS, _bracketing_terms, enumerate_bracketings, word_degree
from nicholslie.nichols import _vanishes, is_zero_in_nichols
from nicholslie.scalar import Scalar

from bracket_oracle import oracle_bracketing
from conftest import matrix_from_strings

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

# "1" is drawn often, so that supports are disconnected as often as connected;
# at order 1, "2*z+1" is 3 and "-z^3" is -1
ENTRIES = ("1", "1", "1", "-1", "2", "1/3", "2*z+1", "-z^3", "z")


@st.composite
def bracket_cases(draw, order):
    """A matrix of rank n <= 3 over Q(zeta_order) and a word of length 2..6."""
    n = draw(st.integers(1, 3))
    B = matrix_from_strings([[draw(st.sampled_from(ENTRIES)) for _ in range(n)] for _ in range(n)], order)
    return B, tuple(draw(st.lists(st.integers(1, n), min_size=2, max_size=6)))


@pytest.mark.parametrize("order", [1, 3, 8, 24])
def test_int_bracketings_match_the_oracle_and_its_zero_test(order):
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(case=bracket_cases(order))
    def check(case):
        B, word = case
        deg = word_degree(word, B.n)
        for tree in enumerate_bracketings(len(word)):
            terms = _bracketing_terms(B, tree, word, MINUS)
            expected = oracle_bracketing(B, tree, word, MINUS)
            assert all(type(c) is int for c in terms.values()), (word, tree)
            assert {w: Scalar.from_rational(order, c) for w, c in terms.items()} == expected.terms
            assert _vanishes(B, terms, deg) == is_zero_in_nichols(B, expected), (B, word, tree)

    check()
