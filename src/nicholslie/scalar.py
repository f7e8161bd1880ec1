"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A scalar is a polynomial in z = zeta_N (a fixed primitive N-th root of
unity) with rational coefficients, kept reduced modulo the N-th
cyclotomic polynomial.  N = 1 gives plain Q.  Because the cyclotomic
polynomial is irreducible over Q, every nonzero scalar is invertible and
equality of coefficient vectors is a faithful equality test, which is
what every "q != 1" edge condition in the graph layer relies on.

Scalars are immutable; all operations return new values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

__all__ = [
    "FieldMismatchError",
    "ScalarParseError",
    "Scalar",
    "cyclotomic_polynomial",
    "euler_phi",
    "parse_scalar",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


# Polynomials below are little-endian coefficient lists over Fraction.

def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divmod(num, den):
    """Exact quotient and remainder of num by den (den nonzero, monic-safe)."""
    num = list(num)
    dd = len(den) - 1
    while dd > 0 and not den[dd]:
        dd -= 1
    lead = den[dd]
    quot = [_ZERO] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = c / lead
            quot[i - dd] = f
            for j in range(dd + 1):
                num[i - dd + j] -= f * den[j]
    rem = num[:dd] if dd else [_ZERO]
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int):
    """Coefficients of the N-th cyclotomic polynomial, little-endian.

    Computed by dividing x^n - 1 by the product of the d-th cyclotomic
    polynomials over the proper divisors d of n; the result is monic with
    integer coefficients.  It is the one form of the modulus: euler_phi
    reads its degree, _reduce folds with its coefficients and Scalar.inv
    starts Euclid from it.
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {n}")
    if n == 1:
        return (-1, 1)
    num = [_ZERO] * (n + 1)
    num[0] = Fraction(-1)
    num[n] = _ONE
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, [Fraction(c) for c in cyclotomic_polynomial(d)])
            assert not any(rem), f"inexact cyclotomic division at n={n}, d={d}"
    deg = len(num) - 1
    while deg > 0 and not num[deg]:
        deg -= 1
    coeffs = num[: deg + 1]
    assert all(c.denominator == 1 for c in coeffs)
    return tuple(int(c) for c in coeffs)


def _reduce(order: int, coeffs):
    """Reduce a coefficient list modulo the order-th cyclotomic polynomial,
    folding each coefficient above the degree down with its integer
    coefficients (zero ones skipped)."""
    mod = cyclotomic_polynomial(order)
    phi = len(mod) - 1
    c = list(coeffs)
    for i in range(len(c) - 1, phi - 1, -1):
        top = c[i]
        if top:
            for k, m in zip(range(i - phi, i), mod):
                if m:
                    c[k] -= top * m
    c = c[:phi]
    c.extend([_ZERO] * (phi - len(c)))
    return tuple(c)


class Scalar:
    """An element of Q(zeta_N), canonical coefficient vector of length phi(N).

    Treated as immutable everywhere; nothing may rebind the slots after
    construction.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def from_poly(cls, order: int, coeffs) -> "Scalar":
        """Build from an arbitrary-length polynomial in zeta_N, reducing."""
        return cls(order, _reduce(order, [Fraction(c) for c in coeffs]))

    @classmethod
    def zero(cls, order: int) -> "Scalar":
        return _cached_zero(order)

    @classmethod
    def one(cls, order: int) -> "Scalar":
        return _cached_one(order)

    @classmethod
    def from_rational(cls, order: int, value) -> "Scalar":
        return cls.from_poly(order, [Fraction(value)])

    @classmethod
    def root_power(cls, order: int, k: int) -> "Scalar":
        """zeta_N ** k (k any integer)."""
        k %= order
        return cls.from_poly(order, [_ZERO] * k + [_ONE])

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self == _cached_one(self.order)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.order != self.order:
                raise FieldMismatchError(
                    f"cannot combine scalars of orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.from_rational(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(self.coeffs) == 1:
            return Scalar(self.order, (self.coeffs[0] + other.coeffs[0],))
        return Scalar(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Scalar(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) == 1:  # plain rationals, no reduction needed
            return Scalar(self.order, (a[0] * b[0],))
        one = _cached_one(self.order).coeffs
        if a == one:
            return other
        if b == one:
            return self
        return Scalar(self.order, _reduce(self.order, _poly_mul(a, b)))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        """Multiplicative inverse, via the extended Euclidean algorithm
        against the cyclotomic modulus."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        # explicit Fractions keep every division in _poly_divmod exact
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            s = [a - b for a, b in zip_longest(s0, _poly_mul(q, s1), fillvalue=_ZERO)]
            r0, r1 = r1, r
            s0, s1 = s1, s
        # r0 is a nonzero constant gcd (modulus irreducible over Q)
        deg = len(r0) - 1
        while deg > 0 and not r0[deg]:
            deg -= 1
        assert deg == 0, "cyclotomic modulus must be coprime to nonzero scalars"
        c = r0[0]
        return Scalar(self.order, _reduce(self.order, [x / c for x in s0]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = _cached_one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- equality / hashing / display ----------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.from_rational(self.order, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        # a rational scalar compares equal to its int/Fraction value
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __str__(self):
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
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
    return Scalar(order, (_ZERO,) * euler_phi(order))


@lru_cache(maxsize=None)
def _cached_one(order: int) -> Scalar:
    return Scalar.from_poly(order, [_ONE])


# -- literal parsing ---------------------------------------------------
#
# scalar := term { ("+"|"-") term }
# term   := coeff [ "*" zpow ] | zpow
# coeff  := ["-"] digits [ "/" digits ]
# zpow   := "z" [ "^" ["-"] digits ]
#
# A leading "-" on the first term is also accepted so that canonical
# printing round-trips.  Whitespace is insignificant.

_TOKEN = re.compile(r"\s*(?:(\d+)|([z^*/+\-]))")


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


class _ScalarParser:
    def __init__(self, tokens, order):
        self.tokens = tokens
        self.order = order
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise ScalarParseError("unexpected end of scalar literal")
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ScalarParseError(f"expected {kind!r}, got {tok[0]!r}")
        self.pos += 1
        return tok

    def parse(self) -> Scalar:
        negate = False
        if self.peek() == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            value = value + t if op == "+" else value - t
        if self.pos != len(self.tokens):
            raise ScalarParseError(f"trailing input in scalar literal at token {self.pos}")
        return value

    def term(self) -> Scalar:
        if self.peek() == "z":
            return self.zpow()
        coeff = self.coeff()
        if self.peek() == "*":
            self.take()
            return self.zpow() * coeff
        return Scalar.from_rational(self.order, coeff)

    def coeff(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        num = self.take("num")[1]
        if self.peek() == "/":
            self.take()
            den = self.take("num")[1]
            if den == 0:
                raise ScalarParseError("zero denominator in scalar literal")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def zpow(self) -> Scalar:
        self.take("z")
        exponent = 1
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            exponent = sign * self.take("num")[1]
        return Scalar.root_power(self.order, exponent)


def parse_scalar(text: str, order: int) -> Scalar:
    """Parse a scalar literal like "1/2*z^3 - z + 2" in Q(zeta_order)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar literal")
    return _ScalarParser(tokens, order).parse()
