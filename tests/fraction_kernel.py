"""Reference cyclotomic arithmetic on per-coefficient Fractions.

This is the engine's former scalar kernel, kept as a test oracle for the
integer kernel in nicholslie.scalar: coefficients are Fractions,
products are reduced against Phi_N coefficient by coefficient, and the
inverse runs the extended Euclidean algorithm against Phi_N.  It shares
only cyclotomic_polynomial with the engine, which has its own numeric
and sympy oracles.
"""

from fractions import Fraction
from itertools import zip_longest

from nicholslie.scalar import cyclotomic_polynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divmod(num, den):
    """Exact quotient and remainder of num by den (den nonzero)."""
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


def _reduce(order, coeffs):
    """Reduce a coefficient list modulo the order-th cyclotomic polynomial."""
    mod = cyclotomic_polynomial(order)
    phi = len(mod) - 1
    c = [Fraction(x) for x in coeffs]
    for i in range(len(c) - 1, phi - 1, -1):
        top = c[i]
        if top:
            for k, m in zip(range(i - phi, i), mod):
                if m:
                    c[k] -= top * m
    c = c[:phi]
    c.extend([_ZERO] * (phi - len(c)))
    return tuple(c)


class FractionScalar:
    """An element of Q(zeta_N) as a reduced tuple of phi(N) Fractions."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = _reduce(order, coeffs)

    @classmethod
    def of(cls, scalar):
        """The oracle's copy of an engine Scalar."""
        return cls(scalar.order, scalar.coeffs)

    def __add__(self, other):
        return FractionScalar(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FractionScalar(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FractionScalar(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        return FractionScalar(self.order, _poly_mul(self.coeffs, other.coeffs))

    def inv(self):
        """Inverse by the extended Euclidean algorithm against Phi_N."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero scalar")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            s = [a - b for a, b in zip_longest(s0, _poly_mul(q, s1), fillvalue=_ZERO)]
            r0, r1 = r1, r
            s0, s1 = s1, s
        deg = len(r0) - 1
        while deg > 0 and not r0[deg]:
            deg -= 1
        assert deg == 0, "cyclotomic modulus must be coprime to nonzero scalars"
        return FractionScalar(self.order, [x / r0[0] for x in s0])

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        result = FractionScalar(self.order, [_ONE])
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
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
