"""_RowReducer, the integer reducer, against two test-local references,
as derandomized Hypothesis properties, so every run draws the same
examples.  Rows are drawn as Scalars and offered to it as the integer rows
of scalar_reducer_oracle.integer_row; its residues are read back as
Scalars over the row's scale times the factor the residue gathered:

- a Scalar reduction that walks its pivots in ascending lead order.  Each
  pivot is zero at the leads inserted before it, so walking the pivots in
  insertion order must leave the same residue and keep the same pivots,
  compared after dividing each by its lead;
- the Scalar reducer of scalar_reducer_oracle, over orders 1, 3, 8 and 24
  and rows with denominators: the same rank, leads, residues and zero
  tests, the same pivots for each row offered as a negative integer
  multiple, and the witness lie._witness solves on integer rows equal to
  the one the Scalar reducer solves.

Rows are sparse, so leads arrive out of order, and some are combinations
of earlier rows, so some residues vanish."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nicholslie.lie import _witness
from nicholslie.nichols import _integer_vector, _RowReducer, _scalars
from nicholslie.scalar import Scalar, euler_phi

from scalar_reducer_oracle import ScalarRowReducer, integer_row, normalized_pivots


def ascending_reduce(pivots, row):
    row = list(row)
    for lead in sorted(pivots):
        c = row[lead]
        if c:
            row = [v - c * p for v, p in zip(row, pivots[lead])]
    return row


def residue(reducer, row, order):
    """reducer's integer residue of a row of Scalars, as Scalars."""
    ints, scale = integer_row(row)
    r, gathered = reducer.residue(ints, order)
    return _scalars(order, r, scale * gathered)


@st.composite
def row_lists(draw, orders=(1, 8), dens=(1,)):
    order = draw(st.sampled_from(orders))
    width = draw(st.integers(1, 6))
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from(dens))
    coeffs = st.lists(coeff, min_size=euler_phi(order), max_size=euler_phi(order))

    def entry():
        return Scalar.from_poly(order, draw(coeffs)) if draw(st.booleans()) else Scalar.zero(order)

    rows = []
    for _ in range(draw(st.integers(1, 8))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(rows))[:2]
            s, t = entry(), entry()
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(width)])
    return order, rows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(drawn=row_lists())
def test_insertion_order_reduction_matches_ascending_leads(drawn):
    order, rows = drawn
    reducer, pivots = _RowReducer(), {}
    for row in rows:
        expected = ascending_reduce(pivots, row)
        assert residue(reducer, row, order) == expected
        lead = next((k for k, v in enumerate(expected) if v), None)
        assert reducer.insert_integers(integer_row(row)[0], order) == (lead is not None)
        if lead is not None:
            inv = expected[lead].inv()
            pivots[lead] = [v * inv for v in expected]
        # each pivot, divided by its positive integer lead, is the nonzero
        # (index, value) pairs of the reference's row: no zero entry is stored
        assert all(D > 0 and all(x for _, x in rest) for D, rest in reducer._by_lead.values())
        assert dict(normalized_pivots(reducer, order)) == {
            k: tuple((idx, v) for idx, v in enumerate(prow) if v) for k, prow in pivots.items()
        }


def oracle_witness(basis, target):
    """The coordinates of target in the independent rows of basis, solved
    on Scalars: reducing (target | 0) by the rows (basis[k] | e_k) leaves
    (0 | -witness)."""
    r = len(basis)
    zero, one = Scalar.zero(target[0].order), Scalar.one(target[0].order)
    augmented = ScalarRowReducer()
    for k, row in enumerate(basis):
        augmented.insert(tuple(row) + (zero,) * k + (one,) + (zero,) * (r - 1 - k))
    return [-v for v in augmented.reduce(tuple(target) + (zero,) * r)[-r:]]


def library_witness(order, basis, target):
    """The witness lie._witness solves on integers, from the basis rows as a
    Lie span keeps them (the (pairs, scale) of nichols._integer_vector) and
    target as an integer row over its scale, as monomial_membership calls it."""
    return _witness(order, [_integer_vector(order, *integer_row(row)) for row in basis], *integer_row(target))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drawn=row_lists(orders=(1, 3, 8, 24), dens=(1, 1, 2, 3)))
def test_integer_reducer_matches_scalar_reducer(drawn):
    order, rows = drawn
    reducer, oracle, scaled = _RowReducer(), ScalarRowReducer(), _RowReducer()
    basis = []
    for row in rows:
        expected, ints = oracle.reduce(row), integer_row(row)[0]
        assert residue(reducer, row, order) == expected
        assert reducer.contains(ints, order) == (not any(expected))
        grew = reducer.insert_integers(ints, order)
        assert oracle.insert(row) == grew
        # the row as integers times -6, as a Lie-span build may offer its
        # candidates, keeps the same pivots and is left as it was
        ints = [-6 * x if type(x) is int else [-6 * y for y in x] if x else 0 for x in ints]
        offered = repr(ints)
        assert scaled.insert_integers(ints, order) == grew and repr(ints) == offered
        if grew:
            basis.append(row)
        assert reducer.rank == oracle.rank == scaled.rank
        assert normalized_pivots(reducer, order) == normalized_pivots(oracle, order)
        assert normalized_pivots(scaled, order) == normalized_pivots(oracle, order)
    if basis:
        # a combination with coefficients 1, -2/3, 3, -4/3, ... of the kept rows
        weights = [Scalar.from_rational(order, Fraction((-1) ** k * (k + 1), 3 if k % 2 else 1))
                   for k in range(len(basis))]
        target = [sum((w * row[i] for w, row in zip(weights, basis)), Scalar.zero(order))
                  for i in range(len(basis[0]))]
        assert library_witness(order, basis, target) == oracle_witness(basis, target) == weights
