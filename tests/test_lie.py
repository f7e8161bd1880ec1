"""Lie spans per multidegree, monomial membership, maximal supports."""

import random

import pytest

from nicholslie.braiding import BraidingMatrix
from nicholslie.freealg import BRAIDED, MINUS, FreeElement, apply_bracketing
from nicholslie.graphs import PURE, build_graph, components
from nicholslie.lie import (
    MEMBER,
    NOT_MEMBER,
    ZERO_IN_NICHOLS,
    lie_span,
    max_supports,
    monomial_membership,
)
from nicholslie.nichols import GuardrailExceeded, pairing_vector
from nicholslie.scalar import Scalar

from conftest import matrix_from_strings, random_braiding_matrix, rational_matrix


CONNECTED = [["2", "z"], ["z", "2"]]        # q12 q21 = z^2 != 1
DISCONNECTED = [["2", "z"], ["z^-1", "2"]]  # q12 q21 = 1


def test_span_at_unit_degree_is_generator():
    B = matrix_from_strings(CONNECTED, 8)
    for i, alpha in ((1, (1, 0)), (2, (0, 1))):
        span = lie_span(B, alpha, BRAIDED)
        assert span.dimension == 1
        assert span.generators_used == [(None, (i,))]


def test_span_dimension_two_when_connected():
    B = matrix_from_strings(CONNECTED, 8)
    assert lie_span(B, (1, 1), BRAIDED).dimension == 2


def test_span_dimension_zero_when_disconnected():
    B = matrix_from_strings(DISCONNECTED, 8)
    assert lie_span(B, (1, 1), BRAIDED).dimension == 0


def test_span_basis_is_independent_and_sourced(rng):
    B = random_braiding_matrix(rng, 2, 8)
    span = lie_span(B, (2, 1), BRAIDED)
    # every basis vector is reproduced exactly by its recorded bracketing
    for nv, (tree, word) in zip(span.basis, span.generators_used):
        elem = apply_bracketing(B, tree, word, BRAIDED)
        assert pairing_vector(B, elem).values == nv.values


def assert_witness_rebuilds(B, letters, report):
    target = pairing_vector(B, FreeElement.from_word(B.n, B.order, letters))
    assert len(report.witness) == report.span.dimension
    combo = [Scalar.zero(B.order)] * len(target.values)
    for coeff, nv in zip(report.witness, report.span.basis):
        combo = [acc + coeff * v for acc, v in zip(combo, nv.values)]
    assert tuple(combo) == target.values


def test_membership_member_when_connected():
    B = matrix_from_strings(CONNECTED, 8)
    report = monomial_membership(B, (2, 1), BRAIDED)
    assert report.status == MEMBER
    # the witness reconstructs the monomial's pairing vector exactly
    assert_witness_rebuilds(B, (2, 1), report)
    # rank 3, orders 3, 8 and 24, spans of dimension >= 2
    for order in (3, 8, 24):
        rng = random.Random(order)
        while True:  # root-power entries keep the arithmetic cheap
            B = BraidingMatrix([[Scalar.root_power(order, rng.randrange(1, order)) for _ in range(3)] for _ in range(3)])
            if len(components(build_graph(B, PURE))) == 1:
                break
        checked = 0
        for letters in [(1, 2, 3), (3, 1, 2), (2, 1, 1), (1, 2, 1, 3), (3, 2, 1, 2), (2, 3, 3, 1)]:
            report = monomial_membership(B, letters, BRAIDED)
            if report.status == MEMBER and report.span.dimension >= 2:
                assert_witness_rebuilds(B, letters, report)
                checked += 1
        assert checked >= 3


def test_membership_rejects_out_of_range_letter():
    B = matrix_from_strings(CONNECTED, 8)
    with pytest.raises(ValueError, match="letter 3 out of range 1..2"):
        monomial_membership(B, (3,), BRAIDED)


def test_membership_not_member_when_disconnected():
    B = matrix_from_strings(DISCONNECTED, 8)
    report = monomial_membership(B, (2, 1), BRAIDED)
    assert report.status == NOT_MEMBER
    assert report.witness is None


def test_membership_zero_status():
    B = matrix_from_strings([["-1", "z"], ["z^-1", "2"]], 8)
    report = monomial_membership(B, (1, 1), BRAIDED)
    assert report.status == ZERO_IN_NICHOLS


def test_generators_always_members(rng):
    for _ in range(6):
        B = random_braiding_matrix(rng, 3, 8)
        for i in (1, 2, 3):
            report = monomial_membership(B, (i,), BRAIDED)
            assert report.status == MEMBER
            assert report.witness == [Scalar.one(8)]


def test_membership_rejects_empty_word():
    B = rational_matrix([[2]])
    with pytest.raises(ValueError):
        monomial_membership(B, (), BRAIDED)


def test_bracket_closure_at_small_degrees(rng):
    # bracketing two basis elements lands inside the span at the sum degree
    from nicholslie.freealg import braided_bracket
    from nicholslie.nichols import _RowReducer

    for _ in range(4):
        B = random_braiding_matrix(rng, 2, 8)
        s1 = lie_span(B, (1, 0), BRAIDED)
        s2 = lie_span(B, (1, 1), BRAIDED)
        target_span = lie_span(B, (2, 1), BRAIDED)
        reducer = _RowReducer()
        for nv in target_span.basis:
            reducer.insert(nv.values)
        for t1, w1 in s1.generators_used:
            e1 = apply_bracketing(B, t1, w1, BRAIDED)
            for t2, w2 in s2.generators_used:
                e2 = apply_bracketing(B, t2, w2, BRAIDED)
                br = braided_bracket(B, e1, e2)
                if not br.terms:
                    continue
                nv = pairing_vector(B, br)
                if nv.is_zero():
                    continue
                assert not any(reducer.reduce(nv.values))


# -- maximal supports ------------------------------------------------------------

def test_max_supports_disconnected_pair():
    B = matrix_from_strings(DISCONNECTED, 8)
    assert max_supports(B, 3, BRAIDED) == [(1,), (2,)]


def test_max_supports_connected_pair():
    B = matrix_from_strings(CONNECTED, 8)
    assert max_supports(B, 2, BRAIDED) == [(1, 2)]


def test_max_supports_single_generator():
    B = rational_matrix([[2]])
    assert max_supports(B, 2, BRAIDED) == [(1,)]


def test_max_supports_match_components_small_battery():
    rng = random.Random(5150)
    values = ["1", "-1", "2", "z^8"]
    diag = ["-1", "2", "z^8"]
    for _ in range(12):
        rows = [
            [
                rng.choice(diag) if i == j else rng.choice(values)
                for j in range(2)
            ]
            for i in range(2)
        ]
        B = matrix_from_strings(rows, 24)
        comps = components(build_graph(B, PURE))
        assert max_supports(B, 3, BRAIDED) == comps


def test_equivalence_booleans_small_battery():
    rng = random.Random(616)
    values = ["1", "-1", "2", "z"]
    diag = ["-1", "2", "z"]
    for _ in range(10):
        rows = [
            [rng.choice(diag) if i == j else rng.choice(values) for j in range(2)]
            for i in range(2)
        ]
        B = matrix_from_strings(rows, 3)
        connected = len(components(build_graph(B, PURE))) == 1
        desc = monomial_membership(B, (2, 1), BRAIDED).status == MEMBER
        asc = monomial_membership(B, (1, 2), BRAIDED).status == MEMBER
        assert connected == desc == asc


def test_minus_span_inside_braided_at_trivial_braiding():
    # with all off-diagonal entries 1 the two brackets agree up to the
    # diagonal scalars; check the degenerate all-ones matrix
    B = rational_matrix([[1, 1], [1, 1]])
    for alpha in [(1, 1), (2, 1)]:
        minus_span = lie_span(B, alpha, MINUS)
        braided_span = lie_span(B, alpha, BRAIDED)
        from nicholslie.nichols import _RowReducer

        reducer = _RowReducer()
        for nv in braided_span.basis:
            reducer.insert(nv.values)
        for nv in minus_span.basis:
            assert not any(reducer.reduce(nv.values))


def test_lie_span_guardrail():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(GuardrailExceeded):
        lie_span(B, (3, 3), BRAIDED, max_terms=10)


def test_lie_span_rejects_bad_kind():
    B = rational_matrix([[2]])
    with pytest.raises(ValueError):
        lie_span(B, (1,), "classical")
