"""Cyclotomic field arithmetic: canonical form, field axioms, parsing."""

import cmath
import copy
import itertools
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest

from nicholslie import scalar
from nicholslie.scalar import (
    MAX_ORDER,
    FieldMismatchError,
    GuardrailExceeded,
    Scalar,
    ScalarParseError,
    cyclotomic_polynomial,
    euler_phi,
    parse_scalar,
)

from fraction_kernel import FractionScalar
from norm_inverse_oracle import flat_inverse


def numeric_cyclotomic(n):
    """Independent oracle: expand prod (x - w) over primitive n-th roots of
    unity numerically and round the coefficients."""
    roots = [
        cmath.exp(2j * cmath.pi * k / n)
        for k in range(1, n + 1)
        if math.gcd(k, n) == 1
    ]
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return tuple(round(c.real) for c in coeffs)


# -- cyclotomic polynomials -------------------------------------------------

def test_cyclotomic_base_case():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1


def test_cyclotomic_n4():
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # x^2 + 1


def test_cyclotomic_n8():
    # frozen from the numeric product over primitive 8th roots: x^4 + 1
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclotomic_matches_numeric_oracle(n):
    assert cyclotomic_polynomial(n) == numeric_cyclotomic(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12, 24])
def test_cyclotomic_monic_of_totient_degree(n):
    poly = cyclotomic_polynomial(n)
    assert poly[-1] == 1
    # euler_phi reads the degree, so count the units mod n independently
    units = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
    assert len(poly) - 1 == euler_phi(n) == units


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected), n


def test_cyclotomic_divisor_product_is_x_n_minus_1():
    # x^n - 1 = prod over d | n of Phi_d, an identity the prime-factor
    # construction does not use
    for n in range(1, 150):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                factor = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(factor) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(factor):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_large_order_from_radical():
    # Phi_N(x) = Phi_rad(N)(x^(N / rad(N))), here rad(20000) = 10
    phi10 = cyclotomic_polynomial(10)
    stretched = [0] * (2000 * (len(phi10) - 1) + 1)
    stretched[::2000] = phi10
    assert cyclotomic_polynomial(20000) == tuple(stretched)


@pytest.mark.parametrize("build", [
    lambda: cyclotomic_polynomial(MAX_ORDER + 1),
    lambda: euler_phi(MAX_ORDER + 1),
    lambda: Scalar.one(10**9),
    lambda: Scalar.root_power(10**7, -1),
    lambda: parse_scalar("z^9999999", 10**7),
], ids=["polynomial", "totient", "one", "root-power", "literal"])
def test_order_above_cap_is_refused_before_allocating(build):
    # each would otherwise build a list of about N ints, 80 MB at N = 10^7
    tracemalloc.start()
    try:
        with pytest.raises(GuardrailExceeded) as info:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.cap == MAX_ORDER and info.value.needed > MAX_ORDER
    assert peak < 10**6


# -- multiplication / inversion --------------------------------------------

def test_mul_roots_of_unity_order8():
    z = Scalar.root_power(8, 1)
    assert (z ** 2 * z ** 6).is_one()


def test_mul_conjugates_order4():
    z = Scalar.root_power(4, 1)
    one = Scalar.one(4)
    assert (one + z) * (one - z) == Scalar.from_rational(4, 2)


def test_mul_rationals():
    a = Scalar.from_rational(1, Fraction(2, 3))
    b = Scalar.from_rational(1, Fraction(3, 4))
    assert a * b == Scalar.from_rational(1, Fraction(1, 2))


def test_inv_monomial_order8():
    z = Scalar.root_power(8, 1)
    assert (z ** 3).inv() == z ** 5  # exponents sum to 8


def test_inv_rational():
    assert Scalar.from_rational(1, -2).inv() == Scalar.from_rational(1, Fraction(-1, 2))


def test_inv_one_plus_i():
    # (1+z)(1-z)/2 = 1 using z^2 = -1
    z = Scalar.root_power(4, 1)
    one = Scalar.one(4)
    expected = (one - z) * Scalar.from_rational(4, 1) / Scalar.from_rational(4, 2)
    got = (one + z).inv()
    assert got == expected
    assert ((one + z) * got).is_one()


def test_monomial_inverse_values():
    for order in (5, 8, 12, 24, 4000):
        for e in (1, 2, euler_phi(order) - 1):  # c * z^e, one nonzero coefficient
            s = Scalar.root_power(order, e) * Fraction(-3, 5)
            inv = s.inv()
            assert (s * inv).is_one()
            assert inv == Scalar.root_power(order, -e) * Fraction(-5, 3)


# -- the inverse down the Galois tower against the flat norm ------------------
# norm_inverse_oracle keeps the former inverse, which multiplies num by all of
# its phi(N) - 1 conjugates; Scalar.inv takes the norm one prime-index step of
# (Z/N)^* at a time.  The flat norm takes seconds per inverse at N = 401 and
# minutes at N = 1009, so those orders are checked against a closed form.

FLAT_ORDERS = list(range(1, 61)) + [101]
TOWER_ORDERS = FLAT_ORDERS + [401, 1009, 20000]


def test_galois_tower_climbs_the_units_by_prime_steps():
    for order in TOWER_ORDERS:
        group = {1}
        for reps in scalar._galois_tower(order):
            p = len(reps) + 1
            assert all(p % d for d in range(2, p)), (order, p)
            grown = {h * r % order for h in group for r in (1,) + reps}
            assert len(grown) == p * len(group)  # the p cosets are disjoint
            group = grown
        assert group == {1} | {k for k in range(1, order) if math.gcd(k, order) == 1}


def test_inverse_matches_flat_norm():
    rng = random.Random(401)
    for order in FLAT_ORDERS:
        for _ in range(3):
            x = _random_operand(rng, order)
            assert x.inv() == flat_inverse(x), (order, x)
        # two terms: the sparse case of the first conjugates
        e = rng.randrange(1, euler_phi(order)) if euler_phi(order) > 1 else 0
        x = Scalar.from_poly(order, [2] + [0] * (e - 1) + [-3] if e else [5])
        assert x.inv() == flat_inverse(x), (order, x)


@pytest.mark.parametrize("order, a, b, e", [(401, 2, 3, 7), (401, -1, 5, 400), (1009, 1, 1, 100)])
def test_binomial_inverse_closed_form(order, a, b, e):
    # w = z^e has w^N = 1, so (a + b w) * sum_k a^(N-1-k) (-b w)^k = a^N - (-b)^N
    x = Scalar.from_poly(order, [a] + [0] * (e - 1) + [b])
    terms = [0] * order
    for k in range(order):
        terms[k * e % order] += a ** (order - 1 - k) * (-b) ** k
    expected = Scalar.from_poly(order, terms) * Fraction(1, a ** order - (-b) ** order)
    assert x.inv() == expected


def test_inverse_at_order_401_takes_few_products(monkeypatch):
    # phi(401) = 400 = 2^4 * 5^2: steps of index 2, 2, 2, 5, 5, 2 take
    # sum(p - 2) = 6 products of conjugates, 6 relative norms and 5 cofactor
    # products, where the flat norm takes 399
    product = scalar._product
    calls = []
    monkeypatch.setattr(scalar, "_product", lambda *args: calls.append(1) or product(*args))
    x = Scalar.from_poly(401, [1, -2, 0, 3])
    inverse = x.inv()
    assert len(calls) == 17
    assert (x * inverse).is_one()


def _random_operand(rng, order):
    phi = euler_phi(order)
    while True:
        s = Scalar.from_poly(
            order, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)]
        )
        if s:
            return s


def test_mul_and_inv_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(s):
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(s.coeffs)]
        return sympy.Poly(coeffs, x, domain="QQ")

    def from_sympy(poly, order):
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
        return Scalar.from_poly(order, coeffs)

    rng = random.Random(1729)
    for order in range(1, 31):
        modulus = sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="QQ")
        for _ in range(5):
            a, b = _random_operand(rng, order), _random_operand(rng, order)
            assert a * b == from_sympy((to_sympy(a) * to_sympy(b)).rem(modulus), order)
            assert a.inv() == from_sympy(to_sympy(a).invert(modulus), order)


def test_products_and_inverses_have_fraction_coefficients():
    rng = random.Random(4)
    for order in range(1, 31):
        for _ in range(4):
            a, b = _random_operand(rng, order), _random_operand(rng, order)
            for value in (a * b, a.inv()):
                assert all(type(c) is Fraction for c in value.coeffs)
        # an operand holding plain ints still inverts to exact Fractions
        ints = Scalar(order, tuple(rng.randint(1, 4) for _ in range(euler_phi(order))))
        assert all(type(c) is Fraction for c in ints.inv().coeffs)


def test_inexact_coefficients_raise_type_error():
    # a float would silently turn exact arithmetic into float arithmetic
    for build in (
        lambda: Scalar(1, (0.5,)),
        lambda: Scalar(3, (0.5, 1)),
        lambda: Scalar.from_poly(8, [1, 0.25]),
        lambda: Scalar.from_rational(1, 0.1),
        lambda: Scalar.from_rational(3, 1.0),
        lambda: Scalar.one(3) * 0.5,
        lambda: 0.5 + Scalar.one(3),
        lambda: Scalar.one(1) - 1.5,
    ):
        with pytest.raises(TypeError):
            build()


def _oracle_polys(rng, order):
    """Raw coefficient lists: zero, +-z^k (unreduced), a small rational, a
    small-rational dense element and a two-term one with large
    denominators."""
    phi = euler_phi(order)
    k = rng.randrange(order)
    return [
        [0],
        [0] * k + [1],
        [0] * k + [-1],
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9))],
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)],
        [0] * rng.randrange(phi) + [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))]
        + [Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))],
    ]


def _assert_same(got, want):
    # equality compares the canonical (num, den) form, so this also checks
    # that got was normalized
    assert got == Scalar(want.order, want.coeffs)
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert str(got) == str(want)
    assert hash(got) == hash(want)


@pytest.mark.parametrize("order", list(range(1, 31)))
def test_integer_kernel_matches_fraction_oracle(order):
    rng = random.Random(order * 7 + 3)
    polys = _oracle_polys(rng, order)
    pairs = [(Scalar.from_poly(order, p), FractionScalar(order, p)) for p in polys]
    for (a, fa), (b, fb) in itertools.product(pairs, repeat=2):
        _assert_same(a + b, fa + fb)
        _assert_same(a - b, fa - fb)
        _assert_same(a * b, fa * fb)
        assert (a == b) == (fa == fb)
    for a, fa in pairs:
        _assert_same(-a, -fa)
        if any(fa.coeffs):
            _assert_same(a.inv(), fa.inv())
            for k in (-2, 3):
                _assert_same(a ** k, fa ** k)


def test_scalars_pickle_and_copy():
    for s in (Scalar.root_power(8, 3), Scalar.from_rational(1, Fraction(-2, 3)), Scalar.zero(3)):
        for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert again == s and hash(again) == hash(s) and str(again) == str(s)


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero(8).inv()


# -- add / neg / eq / is_one -------------------------------------------------

def test_add_collects():
    z = Scalar.root_power(4, 1)
    assert z + z == Scalar.from_poly(4, [0, 2])


def test_is_one():
    assert Scalar.one(12).is_one()
    assert not Scalar.from_rational(12, 2).is_one()


def test_is_one_after_reduction():
    z = Scalar.root_power(8, 1)
    assert (z ** 4 + Scalar.from_rational(8, 2)).is_one()  # zeta_8^4 = -1


def test_mismatched_orders_raise():
    with pytest.raises(FieldMismatchError):
        Scalar.one(4) + Scalar.one(8)
    with pytest.raises(FieldMismatchError):
        Scalar.one(4) * Scalar.one(8)


def test_parse_scalar_order_zero_is_value_error():
    with pytest.raises(ValueError, match="cyclotomic order must be an integer >= 1, got 0"):
        parse_scalar("z", 0)


def test_parse_scalar_negative_order_is_value_error():
    with pytest.raises(ValueError, match="got -3"):
        parse_scalar("z", -3)


@pytest.mark.parametrize("order", [True, 0, -3, 2.0])
@pytest.mark.parametrize("build", [
    lambda order: parse_scalar("1", order),
    lambda order: Scalar(order, [1]),
    lambda order: Scalar.from_poly(order, [1]),
    lambda order: Scalar.from_rational(order, 1),
    lambda order: Scalar.root_power(order, 1),
    lambda order: Scalar.zero(order),
    lambda order: Scalar.one(order),
], ids=["parse_scalar", "Scalar", "from_poly", "from_rational", "root_power", "zero", "one"])
def test_every_order_entry_rejects_non_positive_int(build, order):
    # True must fail even after Scalar.one(1) has filled the caches keyed by 1
    Scalar.one(1)
    with pytest.raises(ValueError, match="cyclotomic order must be an integer >= 1"):
        build(order)


@pytest.mark.parametrize("order", [True, 0, -3, 2.0])
@pytest.mark.parametrize("text", ["", "   ", "z^", "1/", "3/0", "x1", "1 2", "2*z"])
def test_parse_scalar_reports_bad_order_before_literal(text, order):
    with pytest.raises(ValueError, match="cyclotomic order must be an integer >= 1"):
        parse_scalar(text, order)


def test_equality_requires_same_order():
    assert Scalar.from_rational(4, 2) != Scalar.from_rational(8, 2)


@pytest.mark.parametrize("order", [1, 3, 8])
def test_equal_rationals_hash_equal(order):
    # a scalar equal to an int or Fraction must hash like it, so it finds
    # the same dict entry and collapses in a set
    for value in (0, 1, -1, 7, Fraction(1, 2), Fraction(-3, 4)):
        s = Scalar.from_rational(order, value)
        assert s == value
        assert hash(s) == hash(value)
        assert {value: "x"}.get(s) == "x"
        assert len({s, value}) == 1
    z = Scalar.root_power(order, 1)
    assert (z == 1) == (order == 1)


# -- field axioms at several orders ------------------------------------------

@pytest.mark.parametrize("order", [1, 3, 4, 8, 12])
def test_field_axioms_randomized(order):
    rng = random.Random(order * 1000 + 17)
    phi = euler_phi(order)

    def rand(nonzero=False):
        while True:
            s = Scalar.from_poly(order, [rng.randint(-3, 3) for _ in range(phi)])
            if s or not nonzero:
                return s

    for _ in range(40):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == Scalar.zero(order)
        x = rand(nonzero=True)
        assert (x * x.inv()).is_one()


@pytest.mark.parametrize("order", [1, 3, 4, 8, 12])
def test_root_has_exact_multiplicative_order(order):
    z = Scalar.root_power(order, 1)
    assert (z ** order).is_one()
    for k in range(1, order):
        assert not (z ** k).is_one()


def test_reduction_idempotent():
    # feeding an unreduced polynomial twice gives the same canonical form
    raw = [3, -1, 0, 0, 2, 0, 0, 5, 1]  # degree 8 poly in zeta_8
    once = Scalar.from_poly(8, raw)
    again = Scalar.from_poly(8, list(once.coeffs))
    assert once == again


def test_negative_powers():
    z = Scalar.root_power(12, 1)
    assert z ** -1 == z ** 11
    assert (z ** -5 * z ** 5).is_one()


# -- literal grammar -----------------------------------------------------------

@pytest.mark.parametrize(
    "text,order,expected",
    [
        ("2", 1, Scalar.from_rational(1, 2)),
        ("-1/2", 1, Scalar.from_rational(1, Fraction(-1, 2))),
        ("z", 8, Scalar.root_power(8, 1)),
        ("z^3", 8, Scalar.root_power(8, 3)),
        ("z^-1", 8, Scalar.root_power(8, -1)),
        ("2*z^2", 8, Scalar.root_power(8, 2) * 2),
        ("1 - z", 4, Scalar.one(4) - Scalar.root_power(4, 1)),
        ("1/2*z^3 - z + 2", 8, Scalar.from_poly(8, [2, -1, 0, Fraction(1, 2)])),
        ("-z", 8, -Scalar.root_power(8, 1)),
        ("z^8", 8, Scalar.one(8)),
    ],
)
def test_parse_scalar(text, order, expected):
    assert parse_scalar(text, order) == expected


def test_parse_whitespace_insignificant():
    assert parse_scalar(" 1/2 * z ^ 3 + 1 ", 8) == parse_scalar("1/2*z^3+1", 8)


@pytest.mark.parametrize("bad", ["", "z^", "1/", "2**z", "x1", "1 +", "3/0", "1 2"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ScalarParseError):
        parse_scalar(bad, 8)


def test_print_parse_roundtrip_randomized(rng):
    for order in (1, 3, 4, 8, 12):
        phi = euler_phi(order)
        for _ in range(25):
            coeffs = [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(phi)
            ]
            s = Scalar.from_poly(order, coeffs)
            assert parse_scalar(str(s), order) == s


def test_coefficient_count_must_be_the_totient():
    with pytest.raises(ValueError, match="^expected 4 coefficients for order 8, got 2$"):
        Scalar(8, [1, 2])


def test_reflected_subtraction():
    z = Scalar.root_power(3, 1)
    assert 1 - z == Scalar(3, [1, -1])
    s = Scalar.from_rational(8, Fraction(3, 4))
    assert Fraction(1, 2) - s == Scalar(8, [Fraction(-1, 4), 0, 0, 0])
    with pytest.raises(TypeError):
        "1" - z
