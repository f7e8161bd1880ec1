import random

import pytest

from nicholslie.braiding import BraidingMatrix
from nicholslie.cli import parse_bracket_expr
from nicholslie.freealg import FreeElement, apply_bracketing
from nicholslie.nichols import pairing_vector
from nicholslie.scalar import Scalar, parse_scalar


def rational_matrix(rows):
    """Braiding matrix over Q from integer entries."""
    return BraidingMatrix(
        [[Scalar.from_rational(1, e) for e in row] for row in rows]
    )


def matrix_from_strings(rows, order):
    return BraidingMatrix.from_strings(rows, order)


def random_scalar(rng, order, span=2, nonzero=False):
    """Random small-coefficient scalar in Q(zeta_order)."""
    from nicholslie.scalar import euler_phi

    while True:
        s = Scalar.from_poly(order, [rng.randint(-span, span) for _ in range(euler_phi(order))])
        if s or not nonzero:
            return s


def random_braiding_matrix(rng, n, order):
    return BraidingMatrix(
        [[random_scalar(rng, order, nonzero=True) for _ in range(n)] for _ in range(n)]
    )


def assert_witness_lines_rebuild(B, word, kind, lines):
    """Each `witness: (c) * EXPR` line is a certificate: the sum of
    c * pairing_vector(EXPR) must be the monomial's pairing vector."""
    target = pairing_vector(B, FreeElement.from_word(B.n, B.order, word)).values
    combo = [Scalar.zero(B.order)] * len(target)
    assert lines
    for line in lines:
        coeff_text, expr = line[len("witness: ("):].split(") * ")
        coeff = parse_scalar(coeff_text, B.order)
        tree, gen_word = parse_bracket_expr(expr)
        nv = pairing_vector(B, apply_bracketing(B, tree, gen_word, kind))
        combo = [acc + coeff * v for acc, v in zip(combo, nv.values)]
    assert tuple(combo) == target


@pytest.fixture
def rng():
    return random.Random(20240811)
