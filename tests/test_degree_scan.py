"""The degree scans of lie.max_supports and verify's thm-equiv against the
word scans of tests/max_supports_oracle.py, as a derandomized Hypothesis
property, and the refusals of lie_span against a matrix that has cached
nothing.

Matrices of rank <= 4 are drawn at orders 1, 3 and 8 from a palette with
entries such as 1/3 and 2*z+1.  Each pair of letters is a non-edge
(q_ij = q_ji = 1), an edge drawn from the palette, or an augmented-only
pair (q_ji = q_ij^-1, q_ij != 1 allowed), and a diagonal of -1 or of a
root of unity makes zero words.  Each case is run at the default cap and
at small caps, where a Lie span is refused: both scans must give the same
answer or raise the same text.
"""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from nicholslie.braiding import BraidingMatrix
from nicholslie.freealg import BRAIDED, MINUS
from nicholslie.lie import _degrees, lie_span, max_supports
from nicholslie.nichols import GuardrailExceeded
from nicholslie.scalar import parse_scalar
from nicholslie.verify import check_theorem_equivalences

from max_supports_oracle import oracle_equivalence_evidence, oracle_max_supports

PALETTES = {
    1: ("1/3", "2", "-1", "3/2", "-2"),
    3: ("z", "2*z+1", "-1", "1/3", "z^2", "-z"),
    8: ("z", "2*z+1", "-1", "1/3", "z^3", "z^4", "-z^2"),
}


@st.composite
def scan_cases(draw):
    order = draw(st.sampled_from(sorted(PALETTES)))
    entry = st.sampled_from(PALETTES[order]).map(lambda text: parse_scalar(text, order))
    n = draw(st.integers(1, 4))
    one = parse_scalar("1", order)
    rows = [[one] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(entry)
        for j in range(i + 1, n):
            pair = draw(st.sampled_from(("none", "edge", "augmented")))
            if pair == "edge":
                rows[i][j], rows[j][i] = draw(entry), draw(entry)
            elif pair == "augmented":
                rows[i][j] = draw(entry)
                rows[j][i] = rows[i][j].inv()
    d_max = draw(st.integers(1, 4))
    caps = draw(st.lists(st.integers(0, 80), min_size=1, max_size=3))
    return rows, d_max, caps


def outcome(call):
    """call()'s value, or the text of the refusal it raises."""
    try:
        return call()
    except GuardrailExceeded as exc:
        return str(exc)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=scan_cases())
# x1^2 = x2^2 = 0 and q12 q21 = 1: every span above degree 1 is empty
@example(case=([[parse_scalar("-1", 1), parse_scalar("1", 1)],
                [parse_scalar("1", 1), parse_scalar("-1", 1)]], 4, [2, 3, 4]))
def test_degree_scans_match_the_word_scans(case):
    rows, d_max, caps = case
    n = len(rows)
    for cap in (None, *caps):
        for kind in (BRAIDED, MINUS):
            got = outcome(lambda: max_supports(BraidingMatrix(rows), d_max, kind, cap))
            expected = outcome(lambda: oracle_max_supports(BraidingMatrix(rows), d_max, kind, cap))
            assert got == expected, (cap, kind)
        if d_max >= n:
            report = check_theorem_equivalences(BraidingMatrix(rows), d_max, cap)
            assert report.evidence == oracle_equivalence_evidence(BraidingMatrix(rows), d_max, cap), cap


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=scan_cases())
def test_span_refusals_do_not_depend_on_the_cache(case):
    # a span cached at the default cap refuses a smaller cap exactly where,
    # and with the text with which, a matrix that has cached nothing does
    rows, d_max, caps = case
    B = BraidingMatrix(rows)
    max_supports(B, d_max, BRAIDED)
    for (alpha, kind), span in list(B._lie_span_cache.items()):
        for cap in caps:
            got = outcome(lambda: lie_span(B, alpha, kind, cap).basis)
            assert got == outcome(lambda: lie_span(BraidingMatrix(rows), alpha, kind, cap).basis), alpha


@pytest.mark.parametrize("n, d", [(1, 3), (2, 4), (3, 4), (4, 3)])
def test_degrees_come_in_the_order_the_word_scan_meets_them(n, d):
    met = {}
    for word in product(range(1, n + 1), repeat=d):
        met.setdefault(tuple(word.count(i) for i in range(1, n + 1)), word)
    assert list(_degrees(n, d)) == list(met.items())
