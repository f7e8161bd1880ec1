"""nichols._ShuffleTables, whose bracket tables hold integer weights over
Z[zeta_N] and one denominator per split, against the former Scalar-weight
tables of span_oracle.ScalarTables, as a derandomized Hypothesis property:
every split of a drawn degree, each integer table divided by its
denominator, must be the Scalar table entry for entry, and None exactly
where the Scalar table is None.  The chi pair it takes for p,
BraidingMatrix._chi_pair, must be BraidingMatrix.chi in lowest terms, and
its p * p' = 1 test must agree with the Scalar product.

Matrices are drawn over orders 1, 3, 8 and 24 with entries that are signed
roots of unity or have denominators 2 and 3 and negative coefficients; the
bracket coefficient p is chi(gamma, beta), 1 or a drawn scalar.  Some
matrices make x_1 commute with every other letter up to q_1j (q_1j q_j1 =
1), so that the splits between {1} and the other letters cancel at p =
chi(gamma, beta), and the examples below always run."""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from nicholslie.braiding import BraidingMatrix
from nicholslie.nichols import _ShuffleTables
from nicholslie.scalar import Scalar, euler_phi

from span_oracle import ScalarTables, divided_table, ring_pair, ring_scalar

P_CHOICES = ("chi", "one", "drawn")


@st.composite
def scalars(draw, order):
    phi = euler_phi(order)
    if draw(st.booleans()):
        return draw(st.sampled_from((1, -1))) * Scalar.root_power(order, draw(st.integers(0, order - 1)))
    coeff = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3)))
    s = Scalar.from_poly(order, draw(st.lists(coeff, min_size=phi, max_size=phi)))
    return s if s else Scalar.from_rational(order, Fraction(-1, 2))


@st.composite
def table_cases(draw):
    order = draw(st.sampled_from((1, 3, 8, 24)))
    n = draw(st.integers(1, 3))
    rows = [[draw(scalars(order)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        for j in range(1, n):
            rows[j][0] = rows[0][j].inv()
    top = 4 if order < 24 else 3
    alpha = draw(st.tuples(*[st.integers(0, 3)] * n).filter(lambda a: 2 <= sum(a) <= top))
    return rows, alpha, draw(st.sampled_from(P_CHOICES)), draw(scalars(order))


def q(order, *entries):
    return [[Scalar.from_poly(order, [Fraction(e)]) if isinstance(e, (int, str)) else e for e in row]
            for row in entries]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=table_cases())
# q12 q21 = 1 over Q: the split (1, 0) / (0, 1) cancels at p = chi
@example(case=(q(1, ["2", "-3"], ["-1/3", "1/2"]), (1, 1), "chi", Scalar.one(1)))
# q11 = z at order 3: [x1, x1^2] cancels at p = chi = z^2
@example(case=([[Scalar.root_power(3, 1)]], (3,), "chi", Scalar.one(3)))
# order 8 and order 24, with a drawn p that has a denominator
@example(case=([[Scalar.root_power(8, 3), Scalar.from_rational(8, Fraction(-2, 3))],
                [Scalar.root_power(8, 5), Scalar.root_power(8, 1) + Scalar.from_rational(8, 2)]],
               (2, 2), "drawn", Scalar.from_poly(8, [Fraction(1, 2), 0, -1, 0])))
@example(case=([[Scalar.root_power(24, 7), Scalar.from_rational(24, Fraction(1, 3))],
                [Scalar.root_power(24, 17), Scalar.root_power(24, 8)]],
               (2, 1), "one", Scalar.one(24)))
def test_integer_tables_are_the_scalar_tables(case):
    rows, alpha, p_choice, drawn = case
    B = BraidingMatrix(rows)
    tables, oracle = _ShuffleTables(B), ScalarTables(BraidingMatrix(rows), alpha)
    for beta in product(*(range(a + 1) for a in alpha)):
        if 0 < sum(beta) < sum(alpha):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            p = {"chi": B.chi(gamma, beta), "one": Scalar.one(B.order), "drawn": drawn}[p_choice]
            result = tables.bracket(beta, gamma, ring_pair(p))
            expected = oracle.bracket(beta, gamma, p)
            assert divided_table(B.order, result) == expected, (beta, p)
            if result is not None:
                assert result[1] > 0 and all(w for row in result[0] for entry in row for _, w in entry)
            # chi on the entries' integer pairs, in lowest terms, and the p * p' = 1 test
            chi, mirror = B._chi_pair(gamma, beta), B._chi_pair(beta, gamma)
            assert ring_scalar(B.order, *chi) == B.chi(gamma, beta) and chi[1] == B.chi(gamma, beta).den
            assert tables.inverses(chi, mirror) == (B.chi(gamma, beta) * B.chi(beta, gamma)).is_one()


def test_the_examples_cancel_where_chosen():
    # the first two examples above each hold a split whose table is None
    for rows, alpha, beta in ((q(1, ["2", "-3"], ["-1/3", "1/2"]), (1, 1), (1, 0)),
                              ([[Scalar.root_power(3, 1)]], (3,), (1,))):
        B = BraidingMatrix(rows)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        assert _ShuffleTables(B).bracket(beta, gamma, ring_pair(B.chi(gamma, beta))) is None
        assert ScalarTables(B, alpha).bracket(beta, gamma, B.chi(gamma, beta)) is None
