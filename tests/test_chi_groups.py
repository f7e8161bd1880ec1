"""BraidingMatrix.chi, the product of the entries' integer pairs
(braiding._entry_pairs, an entry 1 skipped) made canonical, against the
cell-by-cell product prod q_ij^(alpha_i * beta_j) of Scalars, as a
derandomized Hypothesis property.

Matrices are drawn over orders 1, 3, 8 and 24 from a small palette, so
that equal entries repeat.  Each entry is built on its own, so equal
entries are distinct objects, and an entry equal to 1 is never the cached
Scalar.one.  Exponents range over negative values too, which take the
pairs of the inverses q_ij^-1, so that the powers of equal entries can
cancel to 1."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from nicholslie.braiding import BraidingMatrix
from nicholslie.scalar import Scalar, euler_phi


def built(order, coeffs):
    """A scalar made on its own from its coefficients, never a cached one."""
    return Scalar.from_poly(order, [Fraction(c) for c in coeffs])


@st.composite
def chi_cases(draw):
    order = draw(st.sampled_from((1, 3, 8, 24)))
    phi = euler_phi(order)
    unit = (1,) + (0,) * (phi - 1)
    coeff = st.sampled_from(("-1", "1", "2", "1/2", "-3/2", "0"))
    drawn = st.lists(coeff, min_size=phi, max_size=phi).filter(lambda c: any(map(Fraction, c)))
    palette = [unit] + draw(st.lists(drawn.map(tuple), min_size=1, max_size=3))
    n = draw(st.integers(1, 4))
    rows = [[draw(st.sampled_from(palette)) for _ in range(n)] for _ in range(n)]
    degree = st.tuples(*[st.integers(-3, 3)] * n)
    return order, rows, draw(degree), draw(degree)


def cell_by_cell(B, alpha, beta):
    out = Scalar.one(B.order)
    for i, a in enumerate(alpha, start=1):
        for j, b in enumerate(beta, start=1):
            out = out * B.entry(i, j) ** (a * b)
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=chi_cases())
# q11 = q21 = 2: their exponents 1 and -1 cancel, and q12 = 1 is built anew
@example(case=(1, [[("2",), ("1",)], [("2",), ("-1",)]], (1, -1), (1, 0)))
# order 24, every entry the same z^3 but for a 1; exponents that cancel over those entries
@example(case=(24, [[(0, 0, 0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0, 0)],
                    [(0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0)]], (2, -1), (1, 1)))
def test_chi_is_the_cell_by_cell_product(case):
    order, rows, alpha, beta = case
    B = BraidingMatrix([[built(order, coeffs) for coeffs in row] for row in rows])
    assert all(e is not Scalar.one(order) for row in B._rows for e in row)
    assert B.chi(alpha, beta) == cell_by_cell(B, alpha, beta)
    # the same on a second call, from the pairs kept on B
    assert B.chi(beta, alpha) == cell_by_cell(B, beta, alpha)
