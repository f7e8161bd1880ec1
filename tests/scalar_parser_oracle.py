"""Reference scalar-literal parser: the engine's former _tokenize and
_ScalarParser.

It is a recursive-descent parser that builds one Scalar per term
(from_rational or root_power) and combines the terms with field
arithmetic, and is kept as a test oracle for nicholslie.scalar's
parse_scalar, which sums the terms into one polynomial instead.  It
shares no parsing code with the engine, only its Scalar type and errors.

scalar := term { ("+"|"-") term }
term   := coeff [ "*" zpow ] | zpow
coeff  := ["-"] digits [ "/" digits ]
zpow   := "z" [ "^" ["-"] digits ]

A leading "-" on the first term is also accepted.  Whitespace is
insignificant.
"""

import re
from fractions import Fraction

from nicholslie.scalar import Scalar, ScalarParseError

_TOKEN = re.compile(r"\s*(?:(\d+)|([z^*/+\-]))")


def _tokenize(text):
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

    def parse(self):
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

    def term(self):
        if self.peek() == "z":
            return self.zpow()
        coeff = self.coeff()
        if self.peek() == "*":
            self.take()
            return self.zpow() * coeff
        return Scalar.from_rational(self.order, coeff)

    def coeff(self):
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
        return sign * num

    def zpow(self):
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


def oracle_parse_scalar(text, order):
    """The scalar literal text in Q(zeta_order), for a valid order."""
    tokens = _tokenize(text)
    if not tokens:
        raise ScalarParseError("empty scalar literal")
    return _ScalarParser(tokens, order).parse()
