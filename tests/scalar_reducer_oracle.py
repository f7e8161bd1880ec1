"""Reference row reducer: exact elimination over lists of Scalar, each
pivot normalized to a leading 1 by a field inverse.

It is kept as the oracle for nichols._RowReducer, which eliminates
fraction-free on integers over Z[zeta_N], and the degree-basis and span
oracles reduce with it, so that they do not run the reducer they check.
normalized_pivots reads the pivots of either reducer in one form, and
integer_row writes a row of Scalars as the integer row that reducer takes.
"""

from math import lcm

from nicholslie.scalar import Scalar


class ScalarRowReducer:
    """Incremental exact row reduction over lists of Scalar (an echelon basis).

    Each pivot is kept as the nonzero (index, value) pairs of its row,
    normalized to a leading 1, and indexed by its lead column; insertion
    order is the deterministic pivot choice, and reduce walks them in it
    (each is zero at the leads inserted before it).
    """

    def __init__(self):
        self._by_lead = {}

    @property
    def rank(self) -> int:
        return len(self._by_lead)

    def reduce(self, row) -> list:
        """The residue of a row after elimination by every pivot; it is
        all zero exactly when the row lies in the span."""
        row = list(row)
        for lead, pivot in self._by_lead.items():
            c = row[lead]
            if c:
                for idx, v in pivot:
                    row[idx] = row[idx] - c * v
        return row

    def contains(self, row) -> bool:
        return not any(self.reduce(row))

    def insert(self, row) -> bool:
        """Reduce a row and keep it as a new pivot if independent; returns
        True when the rank grew."""
        row = self.reduce(row)
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            return False
        inv = row[lead].inv()
        self._by_lead[lead] = tuple((k, v * inv) for k, v in enumerate(row) if v)
        return True


def normalized_pivots(reducer, order: int) -> list:
    """The pivots of a ScalarRowReducer or a nichols._RowReducer of the
    given cyclotomic order, in insertion order, each as (lead, nonzero
    (index, Scalar) pairs of the pivot divided by its lead)."""
    if isinstance(reducer, ScalarRowReducer):
        return list(reducer._by_lead.items())
    one, out = Scalar.one(order), []
    for lead, (D, rest) in reducer._by_lead.items():
        entries = [(k, Scalar.from_poly(order, [x] if isinstance(x, int) else x) / D) for k, x in rest]
        out.append((lead, ((lead, one), *entries)))
    return out


def integer_row(row) -> tuple:
    """(integer row, scale) of a nonempty row of Scalars of one order, in
    nichols._RowReducer's layout: scaled by the lcm of its denominators,
    each entry as its phi(N) integer coefficients, a plain int at
    phi(N) = 1, and 0 for a zero entry at every order."""
    scale = lcm(*[x.den for x in row])
    if len(row[0].num) == 1:
        return [x.num[0] * (scale // x.den) for x in row], scale
    return [[c * (scale // x.den) for c in x.num] if x else 0 for x in row], scale
