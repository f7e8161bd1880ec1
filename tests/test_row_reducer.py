"""_RowReducer against a test-local reduction that walks its pivots in
ascending lead order, as a Hypothesis property over Q and Q(zeta_8).
Each pivot is zero at the leads inserted before it, so walking the
pivots in insertion order must leave the same residue and keep the same
pivots.  Rows are sparse, so leads arrive out of order, and some are
combinations of earlier rows, so some residues vanish.  Derandomized, so
every run draws the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nicholslie.nichols import _RowReducer
from nicholslie.scalar import Scalar, euler_phi


def ascending_reduce(pivots, row):
    row = list(row)
    for lead in sorted(pivots):
        c = row[lead]
        if c:
            row = [v - c * p for v, p in zip(row, pivots[lead])]
    return row


@st.composite
def row_lists(draw):
    order = draw(st.sampled_from((1, 8)))
    width = draw(st.integers(1, 6))
    coeffs = st.lists(st.integers(-2, 2), min_size=euler_phi(order), max_size=euler_phi(order))

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
    return rows


@settings(derandomize=True, max_examples=400, deadline=None)
@given(rows=row_lists())
def test_insertion_order_reduction_matches_ascending_leads(rows):
    reducer, pivots = _RowReducer(), {}
    for row in rows:
        residue = ascending_reduce(pivots, row)
        assert reducer.reduce(row) == residue
        lead = next((k for k, v in enumerate(residue) if v), None)
        assert reducer.insert(row) == (lead is not None)
        if lead is not None:
            inv = residue[lead].inv()
            pivots[lead] = [v * inv for v in residue]
        # each pivot is the nonzero (index, value) pairs of the oracle's row
        assert reducer._by_lead == {
            k: tuple((idx, v) for idx, v in enumerate(prow) if v) for k, prow in pivots.items()
        }
