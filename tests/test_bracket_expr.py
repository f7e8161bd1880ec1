"""cli.parse_bracket_expr against freealg.format_bracketing, as a
derandomized Hypothesis round trip: for bracket trees of up to 8 leaves
over the letters 1..12, parsing the printed expression, with whitespace
put between its tokens, gives back the tree and the word."""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from nicholslie.cli import parse_bracket_expr
from nicholslie.freealg import format_bracketing

TREES = st.recursive(st.none(), lambda sub: st.tuples(sub, sub), max_leaves=8)
TOKEN = re.compile(r"x[0-9]+|[\[\],]")


def leaves(tree) -> int:
    return 1 if tree is None else leaves(tree[0]) + leaves(tree[1])


@st.composite
def spaced_expressions(draw):
    tree = draw(TREES)
    word = tuple(draw(st.lists(st.integers(1, 12), min_size=leaves(tree), max_size=leaves(tree))))
    tokens = TOKEN.findall(format_bracketing(tree, word))
    gaps = st.text(st.sampled_from(" \t\n"), max_size=3)
    text = "".join(draw(gaps) + token for token in tokens) + draw(gaps)
    return tree, word, text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=spaced_expressions())
@example(case=(((None, None), (None, (None, None))), (12, 1, 10, 11, 2), " [\t[x12 ,x1],\n[ x10,[x11,x2] ] ] "))
def test_printed_bracketing_parses_back(case):
    tree, word, text = case
    assert parse_bracket_expr(text) == (tree, word)
    assert parse_bracket_expr(format_bracketing(tree, word)) == (tree, word)
