"""Field properties of Scalar and of the residue map Q(zeta_N) -> F_p
that certifies full rank in basis_of_degree, as Hypothesis properties:
the field axioms over Q(zeta_N), the map being a ring homomorphism, and
rho being a primitive N-th root of unity and a root of Phi_N mod p.
Derandomized, so every run draws the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nicholslie.scalar import Scalar, _residue_field, cyclotomic_polynomial, euler_phi

ORDERS = (1, 3, 8, 24)


@st.composite
def scalars(draw, order, nonzero=False):
    """A scalar of Q(zeta_order) with small Fraction coefficients."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    while True:
        s = Scalar(order, draw(st.lists(coeff, min_size=euler_phi(order), max_size=euler_phi(order))))
        if s or not nonzero:
            return s


@st.composite
def triples(draw):
    order = draw(st.sampled_from(ORDERS))
    return order, draw(scalars(order)), draw(scalars(order)), draw(scalars(order))


def image(x):
    """The image of num / den mod p: (sum num[e] * rho^e) / den, for den prime to p."""
    p, powers = _residue_field(x.order)
    return sum(c * r for c, r in zip(x.num, powers)) * pow(x.den, -1, p) % p


@settings(derandomize=True, max_examples=150, deadline=None)
@given(triples())
def test_field_axioms(case):
    order, a, b, c = case
    zero, one = Scalar.zero(order), Scalar.one(order)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and a - b == a + (-b)
    if a:
        assert a * a.inv() == one and a.inv().inv() == a
        assert (b / a) * a == b


@settings(derandomize=True, max_examples=150, deadline=None)
@given(triples())
def test_residue_map_is_a_ring_homomorphism(case):
    order, a, b, _ = case
    p, _ = _residue_field(order)
    assert image(a * b) == image(a) * image(b) % p
    assert image(a + b) == (image(a) + image(b)) % p
    assert image(-a) == -image(a) % p
    assert image(Scalar.one(order)) == 1 and image(Scalar.zero(order)) == 0


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.sampled_from(ORDERS), st.integers(-50, 50), st.fractions(max_denominator=100))
def test_residue_map_on_roots_and_rationals(order, k, r):
    p, powers = _residue_field(order)
    rho = powers[1] if order > 1 else 1
    assert image(Scalar.root_power(order, k)) == pow(rho, k, p)
    assert image(Scalar.from_rational(order, r)) == r.numerator * pow(r.denominator, -1, p) % p


@pytest.mark.parametrize("order", [1, 3, 8, 24, 401])
def test_rho_is_a_primitive_root_of_phi(order):
    sympy = pytest.importorskip("sympy")
    p, powers = _residue_field(order)
    assert p > 2**31 and (p - 1) % order == 0 and sympy.isprime(p)
    phi = cyclotomic_polynomial(order)
    rho = powers[1] if len(powers) > 1 else -phi[0] % p
    assert powers == tuple(pow(rho, e, p) for e in range(euler_phi(order)))
    assert pow(rho, order, p) == 1
    assert all(pow(rho, k, p) != 1 for k in range(1, order))
    assert sum(c * pow(rho, e, p) for e, c in enumerate(phi)) % p == 0
