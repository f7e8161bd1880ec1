"""_RowReducer, the integer reducer, against two test-local references,
as derandomized Hypothesis properties, so every run draws the same
examples:

- a Scalar reduction that walks its pivots in ascending lead order.  Each
  pivot is zero at the leads inserted before it, so walking the pivots in
  insertion order must leave the same residue and keep the same pivots,
  compared after dividing each by its lead;
- the Scalar reducer of scalar_reducer_oracle, over orders 1, 3, 8 and 24
  and rows with denominators: the same rank, leads, residues, zero tests
  and witnesses solved as monomial_membership solves them.

Rows are sparse, so leads arrive out of order, and some are combinations
of earlier rows, so some residues vanish."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nicholslie.nichols import _RowReducer
from nicholslie.scalar import Scalar, euler_phi

from scalar_reducer_oracle import ScalarRowReducer, normalized_pivots


def ascending_reduce(pivots, row):
    row = list(row)
    for lead in sorted(pivots):
        c = row[lead]
        if c:
            row = [v - c * p for v, p in zip(row, pivots[lead])]
    return row


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
        residue = ascending_reduce(pivots, row)
        assert reducer.reduce(row) == residue
        lead = next((k for k, v in enumerate(residue) if v), None)
        assert reducer.insert(row) == (lead is not None)
        if lead is not None:
            inv = residue[lead].inv()
            pivots[lead] = [v * inv for v in residue]
        # each pivot, divided by its positive integer lead, is the nonzero
        # (index, value) pairs of the reference's row: no zero entry is stored
        assert all(D > 0 and all(x for _, x in rest) for D, rest in reducer._by_lead.values())
        assert dict(normalized_pivots(reducer, order)) == {
            k: tuple((idx, v) for idx, v in enumerate(prow) if v) for k, prow in pivots.items()
        }


def witness(reducer_type, basis, target):
    """The coordinates of target in the independent rows of basis, solved
    as lie.monomial_membership does: reducing (target | 0) by the rows
    (basis[k] | e_k) leaves (0 | -witness)."""
    r = len(basis)
    zero, one = Scalar.zero(target[0].order), Scalar.one(target[0].order)
    augmented = reducer_type()
    for k, row in enumerate(basis):
        augmented.insert(tuple(row) + (zero,) * k + (one,) + (zero,) * (r - 1 - k))
    return [-v for v in augmented.reduce(tuple(target) + (zero,) * r)[-r:]]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(drawn=row_lists(orders=(1, 3, 8, 24), dens=(1, 1, 2, 3)))
def test_integer_reducer_matches_scalar_reducer(drawn):
    order, rows = drawn
    reducer, oracle = _RowReducer(), ScalarRowReducer()
    basis = []
    for row in rows:
        residue = oracle.reduce(row)
        assert reducer.reduce(row) == residue
        assert reducer.contains(row) == (not any(residue))
        grew = reducer.insert(row)
        assert oracle.insert(row) == grew
        if grew:
            basis.append(row)
        assert reducer.rank == oracle.rank
        assert normalized_pivots(reducer, order) == normalized_pivots(oracle, order)
    if basis:
        # a combination with coefficients 1, -2/3, 3, -4/3, ... of the kept rows
        weights = [Scalar.from_rational(order, Fraction((-1) ** k * (k + 1), 3 if k % 2 else 1))
                   for k in range(len(basis))]
        target = [sum((w * row[i] for w, row in zip(weights, basis)), Scalar.zero(order))
                  for i in range(len(basis[0]))]
        assert witness(_RowReducer, basis, target) == witness(ScalarRowReducer, basis, target) == weights
