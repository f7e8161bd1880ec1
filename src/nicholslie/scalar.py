"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A scalar is a polynomial in z = zeta_N (a fixed primitive N-th root of
unity) with rational coefficients, kept reduced modulo the N-th
cyclotomic polynomial.  N = 1 gives plain Q.  Because the cyclotomic
polynomial is irreducible over Q, every nonzero scalar is invertible and
equality of coefficient vectors is a faithful equality test, which is
what every "q != 1" edge condition in the graph layer relies on.

Layout: a scalar is (order, num, den), the polynomial
sum(num[e] * z^e) / den, where num is a tuple of phi(N) ints and den a
positive int with gcd(den, *num) = 1; zero is (0, ..., 0) / 1.  The form
is canonical, so equality is a tuple compare.  Sums share one
denominator, products are integer schoolbook products folded by the
monic integer modulus, and inverses go through the field norm, taken
down a tower of prime-index subgroups of the Galois group, so every
operation runs on plain ints and ends in one gcd pass.  The rational
coefficients are read through Scalar.coeffs.

Scalars are immutable; all operations return new values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm

__all__ = [
    "MAX_ORDER",
    "FieldMismatchError",
    "GuardrailExceeded",
    "ScalarParseError",
    "Scalar",
    "cyclotomic_polynomial",
    "euler_phi",
    "parse_scalar",
]


# cyclotomic_polynomial(N) builds lists of about N ints, so a larger
# order is refused before they are allocated.
MAX_ORDER = 10**5


class GuardrailExceeded(RuntimeError):
    """A computation would exceed the configured size cap.

    Exact elimination is cubic and the modulus of order N has about N
    ints; refusing early beats an opaque multi-hour run or a MemoryError.
    """

    def __init__(self, what: str, needed: int, cap: int, unit: str = "entries"):
        super().__init__(f"{what}: needs {needed} {unit}, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class FieldMismatchError(ValueError):
    """Operands live in cyclotomic fields of different order."""


class ScalarParseError(ValueError):
    """Malformed scalar literal."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient of n >= 1, read as the degree of the n-th
    cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"totient undefined for {n}")
    return len(cyclotomic_polynomial(n)) - 1


# Polynomials below are little-endian lists of ints.

@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the N-th cyclotomic polynomial, little-endian.

    Built in one pass over the prime factors p of n from Phi_1 = x - 1:
    Phi_mp(x) is Phi_m(x^p) when p divides m, else Phi_m(x^p) / Phi_m(x),
    an exact division by a monic integer polynomial.  It is the one form
    of the modulus: euler_phi reads its degree, and products, powers of z
    and the conjugates of the norm inverse fold with its coefficients.
    GuardrailExceeded if n exceeds MAX_ORDER.
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {n}")
    if n > MAX_ORDER:
        raise GuardrailExceeded(f"cyclotomic order {n}", n, MAX_ORDER, "roots of unity")
    poly, m, p = [-1, 1], 1, 2
    while m < n:
        if p * p > n // m:
            p = n // m  # the cofactor left is prime
        if (n // m) % p:
            p += 1
            continue
        quot = [0] * (p * (len(poly) - 1) + 1)
        quot[::p] = poly
        if m % p:
            rem, dd = quot, len(poly) - 1
            quot = [0] * (len(rem) - dd)
            for i in range(len(rem) - 1, dd - 1, -1):
                if c := rem[i]:
                    quot[i - dd] = c
                    for j, k in enumerate(poly, i - dd):
                        rem[j] -= c * k
            assert not any(rem), f"inexact cyclotomic division at n={n}, p={p}"
        poly, m = quot, m * p
    return tuple(poly)


@lru_cache(maxsize=None)
def _fold_terms(order: int):
    """(k, m) for the nonzero coefficients m = Phi_N[k] below the leading one."""
    mod = cyclotomic_polynomial(order)
    return tuple((k, m) for k, m in enumerate(mod[:-1]) if m)


def _fold(order: int, poly: list) -> list:
    """Reduce an int polynomial modulo Phi_N in place, folding each
    coefficient above the degree down with the modulus's nonzero
    coefficients; Phi_N is monic, so ints stay ints."""
    phi = euler_phi(order)
    terms = _fold_terms(order)
    for i in range(len(poly) - 1, phi - 1, -1):
        top = poly[i]
        if top:
            base = i - phi
            for k, m in terms:
                poly[base + k] -= top * m
    del poly[phi:]
    poly.extend([0] * (phi - len(poly)))
    return poly


@lru_cache(maxsize=None)
def _galois_tower(order: int):
    """A chain {1} = K_0 < K_1 < ... < K_r = (Z/N)^* of subgroups, each of
    prime index p in the next, as one tuple per step: the powers g, g^2,
    ..., g^(p-1) mod N of a unit g whose coset generates K_(i+1)/K_i, so
    that with 1 they represent the cosets of K_i in K_(i+1).  It is built
    from the units k in increasing order: while k lies outside the group
    so far, with order m modulo it, g = k^(m/p) for the least prime p
    dividing m has order p modulo it."""
    group, steps = {1}, []
    for k in range(2, order):
        while gcd(k, order) == 1 and k not in group:
            m, x = 1, k
            while x not in group:
                x, m = x * k % order, m + 1
            p = next(p for p in range(2, m + 1) if m % p == 0)
            g = pow(k, m // p, order)
            reps = tuple(pow(g, j, order) for j in range(1, p))
            group = {h * r % order for h in group for r in (1,) + reps}
            steps.append(reps)
    return tuple(steps)


@lru_cache(maxsize=None)
def _residue_field(order: int):
    """(p, powers) for the map Q(zeta_N) -> F_p sending zeta_N to rho:
    p is the least prime p = 1 (mod N) above 2^31 and powers holds rho^e
    mod p for e < phi(N), rho a primitive N-th root of unity mod p.  As
    p does not divide N, rho is a root of Phi_N mod p, so num / den maps
    to (sum num[e] * rho^e) / den, a ring map wherever p does not divide
    den.  Built on first use per order; p is found by trial division."""
    p = (2**31 // order + 1) * order + 1
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += order
    divisors = [d for d in range(1, order) if order % d == 0]
    for g in count(2):  # rho = g^((p-1)/N) has order N unless some rho^d, d | N, is 1
        rho = pow(g, (p - 1) // order, p)
        if all(pow(rho, d, p) != 1 for d in divisors):
            break
    powers = [1]
    for _ in range(euler_phi(order) - 1):
        powers.append(powers[-1] * rho % p)
    return p, tuple(powers)


def _product(order: int, a, b) -> list:
    """a * b mod Phi_N for int coefficient tuples of length phi(N)."""
    out = [0] * (2 * len(a) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]  # battery entries are mostly +-z^k
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return _fold(order, out)


class _Cyclotomic:
    """An element of Z[zeta_N], phi(N) > 1, as the list c of its phi(N)
    int coefficients: the integer weights of the shuffle tables in nichols,
    which use plain ints at phi(N) = 1.  It has what they need, +, -,
    negation, products with an int or another element, positive powers
    and a zero test, and no denominator, so no operation runs a gcd.  A
    product with a rational element (no z-terms) scales the other
    operand's coefficients, and a product by 1 is the other operand itself."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, c: list):
        self.order, self.c = order, c

    def __add__(self, other):
        return _Cyclotomic(self.order, [x + y for x, y in zip(self.c, other.c)])

    def __sub__(self, other):
        return _Cyclotomic(self.order, [x - y for x, y in zip(self.c, other.c)])

    def __neg__(self):
        return _Cyclotomic(self.order, [-x for x in self.c])

    def __mul__(self, other):
        if type(other) is int:
            return self if other == 1 else _Cyclotomic(self.order, [other * x for x in self.c])
        a, b = self.c, other.c
        if not any(b[1:]):
            return self if b[0] == 1 else _Cyclotomic(self.order, [b[0] * x for x in a])
        if not any(a[1:]):
            return other if a[0] == 1 else _Cyclotomic(self.order, [a[0] * x for x in b])
        return _Cyclotomic(self.order, _product(self.order, a, b))

    def __pow__(self, k: int):
        # k >= 1, by squaring
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base, k = base * base if k > 1 else base, k >> 1
        return out

    def __bool__(self) -> bool:
        return any(self.c)


def _ring(order: int, num):
    """The element of Z[zeta_N] with int coefficients num: num[0] itself
    at phi(N) = 1, else a _Cyclotomic."""
    return num[0] if len(num) == 1 else _Cyclotomic(order, list(num))


@lru_cache(maxsize=None)
def _ring_units(order: int) -> tuple:
    """(0, 1) of Z[zeta_N] as _ring makes them, shared per order."""
    return _ring(order, _cached_zero(order).num), _ring(order, _cached_one(order).num)


def _power(order: int, k: int) -> list:
    """z^k mod Phi_N as ints (k any integer), folded on its own."""
    return _fold(order, [0] * (k % order) + [1])


def _norm_cofactor(order: int, num) -> tuple:
    """(c, n) for nonzero int coefficients num: int coefficients c with
    num * c = n mod Phi_N, n a nonzero rational integer.  A monomial
    a * z^e (a rational when e = 0) takes c = z^(N - e) and n = a; anything
    else goes through the field norm, taken down the tower of
    _galois_tower(N): at each step y (at first num) is fixed by the
    subgroup reached so far, its conjugates under the step's coset
    representatives multiply to some c_i, and y * c_i, the relative norm of
    y, is fixed by the next subgroup.  At the top y is the norm n of num,
    and c is the product of the c_i.  That takes about sum(p - 1) products
    over the prime indices p of the steps, where the norm over the whole
    group takes phi(N) - 1.  Scalar.inv and the row reducer of nichols
    both read it."""
    support = [e for e, c in enumerate(num) if c]
    if len(support) == 1:
        e = support[0]
        return _power(order, order - e), num[e]
    y, cofactor = num, None
    for reps in _galois_tower(order):
        c = None
        for k in reps:
            # k is a unit, so e -> k*e mod N sends the exponents of y
            # to distinct places: scatter sigma_k(y), then fold once
            conj = [0] * order
            for e, v in enumerate(y):
                if v:
                    conj[k * e % order] = v
            _fold(order, conj)
            c = conj if c is None else _product(order, c, conj)
        y = _product(order, y, c)
        cofactor = c if cofactor is None else _product(order, cofactor, c)
    # the norm of a nonzero element is a nonzero rational (Phi_N irreducible)
    assert y[0] and not any(y[1:]), "cyclotomic norm must be a nonzero rational"
    return cofactor, y[0]


def _to_ints(coeffs):
    """(int numerators, common denominator) of int/Fraction coefficients;
    anything inexact, such as a float, is a TypeError."""
    coeffs = tuple(coeffs)
    if all(type(c) is int for c in coeffs):  # not isinstance(): a bool takes the general path
        return list(coeffs), 1
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(
                f"scalar coefficients must be int or Fraction, got {type(c).__name__} {c!r}"
            )
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _lift(order: int, value):
    """value as a Scalar of the given order, the one lift of an operand or
    coefficient: an int or Fraction becomes a rational Scalar, a Scalar of
    another order is a FieldMismatchError, and anything else is None (an
    operator then returns NotImplemented)."""
    if isinstance(value, Scalar):
        if value.order != order:
            raise FieldMismatchError(f"cannot combine scalars of orders {order} and {value.order}")
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_rational(order, value)
    return None


def _check_order(order) -> None:
    """ValueError unless the cyclotomic order is an int >= 1; a bool is
    not one, though the lru_caches below would read True as 1.  Building
    the modulus refuses an order above MAX_ORDER before a literal or a
    power of z makes a list of its length."""
    if type(order) is not int or order < 1:
        raise ValueError(f"cyclotomic order must be an integer >= 1, got {order!r}")
    cyclotomic_polynomial(order)


_new = object.__new__


def _canonical(order: int, num, den: int) -> "Scalar":
    """The scalar num / den (den nonzero), divided through by
    gcd(den, *num) and signed so that den > 0."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    s = _new(Scalar)
    s.order = order
    if g == 1:
        s.num = tuple(num)
        s.den = den
    else:
        s.num = tuple([c // g for c in num])
        s.den = den // g
    return s


class Scalar:
    """An element of Q(zeta_N): the canonical (num, den) pair described
    in the module docstring.

    Treated as immutable everywhere; nothing may rebind the slots after
    construction.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        """The scalar with the given phi(N) int/Fraction coefficients."""
        _check_order(order)
        num, den = _to_ints(coeffs)  # den > 0: an lcm of denominators
        if len(num) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(num)}"
            )
        canonical = _canonical(order, num, den)
        self.order, self.num, self.den = order, canonical.num, canonical.den

    @property
    def coeffs(self) -> tuple:
        """The phi(N) rational coefficients, as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, order: int, coeffs) -> "Scalar":
        """Build from an arbitrary-length polynomial in zeta_N, reducing."""
        _check_order(order)
        num, den = _to_ints(coeffs)
        return _canonical(order, _fold(order, num), den)

    @classmethod
    def zero(cls, order: int) -> "Scalar":
        _check_order(order)
        return _cached_zero(order)

    @classmethod
    def one(cls, order: int) -> "Scalar":
        _check_order(order)
        return _cached_one(order)

    @classmethod
    def from_rational(cls, order: int, value) -> "Scalar":
        return cls.from_poly(order, [value])

    @classmethod
    def root_power(cls, order: int, k: int) -> "Scalar":
        """zeta_N ** k (k any integer)."""
        _check_order(order)
        return _canonical(order, _power(order, k), 1)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self == _cached_one(self.order)

    def __bool__(self) -> bool:
        return any(self.num)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar or other.order != self.order:
            other = _lift(self.order, other)
            if other is None:
                return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _canonical(self.order, [x + y for x, y in zip(self.num, other.num)], a)
        return _canonical(
            self.order, [x * b + y * a for x, y in zip(self.num, other.num)], a * b
        )

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar or other.order != self.order:
            other = _lift(self.order, other)
            if other is None:
                return NotImplemented
        a, b = self.den, other.den
        if a == b:
            return _canonical(self.order, [x - y for x, y in zip(self.num, other.num)], a)
        return _canonical(
            self.order, [x * b - y * a for x, y in zip(self.num, other.num)], a * b
        )

    def __rsub__(self, other):
        other = _lift(self.order, other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        s = _new(Scalar)
        s.order = self.order
        s.num = tuple([-c for c in self.num])
        s.den = self.den
        return s

    def __mul__(self, other):
        if other.__class__ is not Scalar or other.order != self.order:
            other = _lift(self.order, other)
            if other is None:
                return NotImplemented
        a, b = self.num, other.num
        den = self.den * other.den
        if len(a) == 1:  # plain rationals: no reduction, and den > 0 already
            n = a[0] * b[0]
            g = gcd(n, den)
            s = _new(Scalar)
            s.order = self.order
            s.num = (n // g,) if g != 1 else (n,)
            s.den = den // g
            return s
        if den == 1:
            one = _cached_one(self.order).num
            if a == one:
                return other
            if b == one:
                return self
        return _canonical(self.order, _product(self.order, a, b), den)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse: num * c = n for the norm cofactor c and
        the rational integer n of _norm_cofactor, so (num / den)^-1 =
        den * c / n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        cofactor, norm = _norm_cofactor(self.order, self.num)
        return _canonical(self.order, [self.den * c for c in cofactor], norm)

    def __truediv__(self, other):
        other = _lift(self.order, other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result, base = None, self  # None: the running 1, never multiplied
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return _cached_one(self.order) if result is None else result

    # -- equality / hashing / display ----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(self.order, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.order == other.order and self.num == other.num and self.den == other.den

    def __hash__(self):
        # a rational scalar compares equal to its int/Fraction value
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.coeffs))

    def __str__(self):
        parts = []
        coeffs = self.coeffs
        for e in range(len(coeffs) - 1, -1, -1):
            c = coeffs[e]
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                zp = "z" if e == 1 else f"z^{e}"
                if c == 1:
                    parts.append(zp)
                elif c == -1:
                    parts.append(f"-{zp}")
                else:
                    parts.append(f"{c}*{zp}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"Scalar({self!s}; order={self.order})"


@lru_cache(maxsize=None)
def _cached_zero(order: int) -> Scalar:
    return _canonical(order, [0] * euler_phi(order), 1)


@lru_cache(maxsize=None)
def _cached_one(order: int) -> Scalar:
    return _canonical(order, [1] + [0] * (euler_phi(order) - 1), 1)


# -- literal parsing ---------------------------------------------------
#
# scalar := term { ("+"|"-") term }
# term   := coeff [ "*" zpow ] | zpow
# coeff  := ["-"] digits [ "/" digits ]
# zpow   := "z" [ "^" ["-"] digits ]
#
# A leading "-" on the first term is also accepted so that canonical
# printing round-trips.  Whitespace is insignificant.

_TOKEN = re.compile(r"\s*(?:([0-9]+)|([z^*/+\-]))")  # ASCII digits only, not \d


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ScalarParseError(f"unexpected character {text[pos:].strip()[0]!r} in scalar literal")
            break
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1))))
        else:
            tokens.append((m.group(2), None))
        pos = m.end()
    return tokens


def parse_scalar(text: str, order: int) -> Scalar:
    """Parse a scalar literal like "1/2*z^3 - z + 2" in Q(zeta_order),
    after checking the order: each term's coefficient is summed at its
    exponent mod N, and the sum is reduced once."""
    _check_order(order)
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar literal")
    pos = 0

    def skip(kind) -> bool:
        nonlocal pos
        if pos < len(tokens) and tokens[pos][0] == kind:
            pos += 1
            return True
        return False

    def take(kind):
        nonlocal pos
        if pos >= len(tokens):
            raise ScalarParseError("unexpected end of scalar literal")
        tok, value = tokens[pos]
        if tok != kind:
            raise ScalarParseError(f"expected {kind!r}, got {tok!r}")
        pos += 1
        return value

    poly = {}
    sign = -1 if skip("-") else 1
    while True:
        has_z = skip("z")
        coeff = 1
        if not has_z:
            coeff = -take("num") if skip("-") else take("num")
            if skip("/"):
                den = take("num")
                if den == 0:
                    raise ScalarParseError("zero denominator in scalar literal")
                coeff = Fraction(coeff, den)
            has_z = skip("*")
            if has_z:
                take("z")
        exponent = 0
        if has_z:
            exponent = 1
            if skip("^"):
                exponent = -take("num") if skip("-") else take("num")
        exponent %= order
        poly[exponent] = poly.get(exponent, 0) + sign * coeff
        if skip("+"):
            sign = 1
        elif skip("-"):
            sign = -1
        else:
            break
    if pos != len(tokens):
        raise ScalarParseError(f"trailing input in scalar literal at token {pos}")
    return Scalar.from_poly(order, [poly.get(e, 0) for e in range(max(poly) + 1)])
