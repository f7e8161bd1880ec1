"""parse_scalar against the former recursive-descent parser
(tests/scalar_parser_oracle.py), as a Hypothesis property: random token
strings over the literal alphabet plus one foreign character, and
well-formed literals, at orders 1..24.  The outcome compared is the
canonical (order, num, den) value, or the exception type and message.
Derandomized, so every run draws the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from nicholslie.scalar import parse_scalar

from scalar_parser_oracle import oracle_parse_scalar

ORDERS = st.integers(1, 24)
PIECES = ("z", "^", "*", "/", "+", "-", "0", "1", "2", "7", "12", "x", " ")


def _outcome(parse, text, order):
    try:
        s = parse(text, order)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return s.order, s.num, s.den


@st.composite
def well_formed_literals(draw):
    def digits():
        return str(draw(st.sampled_from((0, 1, 2, 3, 7, 12, 24, 25, 100))))

    def term():
        coeff = ("-" if draw(st.booleans()) else "") + digits()
        if draw(st.booleans()):
            coeff += "/" + digits()
        zpow = "z"
        if draw(st.booleans()):
            zpow += "^" + ("-" if draw(st.booleans()) else "") + digits()
        return draw(st.sampled_from((coeff, zpow, coeff + "*" + zpow)))

    parts = ["-" if draw(st.booleans()) else "", term()]
    for _ in range(draw(st.integers(0, 4))):
        parts += [draw(st.sampled_from("+-")), term()]
    return draw(st.sampled_from(("", " "))).join(parts)


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=10).map("".join), ORDERS)
@example("2z", 8)
@example("2*-z", 8)
@example("--2", 3)
@example("1 - -z^-1", 12)
def test_token_strings_match_oracle(text, order):
    assert _outcome(parse_scalar, text, order) == _outcome(oracle_parse_scalar, text, order)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(well_formed_literals(), ORDERS)
def test_well_formed_literals_match_oracle(text, order):
    assert _outcome(parse_scalar, text, order) == _outcome(oracle_parse_scalar, text, order)
