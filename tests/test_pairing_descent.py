"""The short-row pairing descent against the plain skew-derivation descent
(tests/descent_oracle.py), as a Hypothesis property: random homogeneous
elements over Q(zeta_N), N in 1, 3, 8, 24, of rank 2..4 and total degree
1..6, with braided brackets whose terms cancel in B(V) and diagonal
entries -1 whose branches vanish.  Derandomized, so every run draws the
same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from nicholslie.braiding import BraidingMatrix
from nicholslie.freealg import FreeElement, braided_bracket
from nicholslie.nichols import (_degree_den, _descent, _integer_terms, _scalars, is_zero_in_nichols,
                                pairing_vector, skew_derivation)
from nicholslie.scalar import parse_scalar

from descent_oracle import oracle_pairings, oracle_skew

ORDERS = (1, 3, 8, 24)
# roots of unity of small order make branches vanish and brackets cancel;
# "1 + z" is no monomial at orders 8 and 24, so its inverse takes the norm
PALETTE = ("1", "-1", "2", "-1/2", "z", "-z", "z^2", "z^-1", "1 + z")


@st.composite
def homogeneous_elements(draw):
    order = draw(st.sampled_from(ORDERS))
    n = draw(st.integers(2, 4))
    B = BraidingMatrix.from_strings(
        [[draw(st.sampled_from(PALETTE)) for _ in range(n)] for _ in range(n)], order
    )
    d = draw(st.integers(1, 6))
    letters = draw(st.lists(st.integers(1, n), min_size=d, max_size=d))
    if d >= 2 and draw(st.booleans()):
        cut = draw(st.integers(1, d - 1))
        elem = braided_bracket(B, FreeElement.from_word(n, order, letters[:cut]),
                               FreeElement.from_word(n, order, letters[cut:]))
    else:
        elem = FreeElement.zero(n, order)
        for _ in range(draw(st.integers(1, 4))):
            coeff = parse_scalar(draw(st.sampled_from(PALETTE)), order)
            elem = elem + FreeElement.from_word(n, order, draw(st.permutations(letters)), coeff)
    assume(elem.terms)
    return B, elem


def _vanishing_branch():
    # q11 = -1: D_1 kills x1 x1 x2 x2 x1 at the top, above the short rows
    B = BraidingMatrix.from_strings([["-1", "z"], ["z^-1", "2"]], 8)
    return B, FreeElement.from_word(2, 8, (1, 1, 2, 2, 1))


def _cancelling_bracket():
    # q12 q21 = 1: [x1, x2] x1 x2 is zero in B(V), its words are not
    B = BraidingMatrix.from_strings([["2", "z^2"], ["z^-2", "-1"]], 24)
    x1, x2 = (FreeElement.generator(2, 24, i) for i in (1, 2))
    return B, braided_bracket(B, x1, x2) * x1 * x2


@settings(derandomize=True, max_examples=250, deadline=None)
@example(case=_vanishing_branch())
@example(case=_cancelling_bracket())
@given(case=homogeneous_elements())
def test_pairing_vector_matches_descent_oracle(case):
    B, elem = case
    expected = tuple(oracle_pairings(B, elem, elem.degree()))
    # is_zero first, so pairing_vector also reads rows memoized by another call
    assert is_zero_in_nichols(B, elem) == (not any(expected))
    assert pairing_vector(B, elem).values == expected
    # the descent yields the nonzero values alone, in dual-word order, as
    # integers over the scale of the terms and the denominator of the degree
    alpha = elem.degree()
    terms, scale = _integer_terms(B.order, elem.terms)
    pairs = tuple(_descent(B, terms, alpha))
    values = _scalars(B.order, [v if type(v) is int else v.c for _, v in pairs], scale * _degree_den(B, alpha))
    assert tuple(zip([k for k, _ in pairs], values)) == tuple((k, v) for k, v in enumerate(expected) if v)
    for i in range(1, B.n + 1):
        assert skew_derivation(B, i, elem) == oracle_skew(B, i, elem)
