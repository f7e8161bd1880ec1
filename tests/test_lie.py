"""Lie spans per multidegree, monomial membership, maximal supports."""

import dataclasses
import gc
import random
from itertools import permutations, product
from math import comb, prod

import pytest

from nicholslie.braiding import BraidingMatrix
from nicholslie.freealg import (
    BRAIDED,
    MINUS,
    FreeElement,
    apply_bracketing,
    enumerate_bracketings,
    multinomial,
    word_degree,
    words_of_multidegree,
)
from nicholslie import freealg, lie, nichols, verify
from nicholslie.graphs import PURE, build_graph, components, realize_graph
from nicholslie.lie import (
    MEMBER,
    NOT_MEMBER,
    ZERO_IN_NICHOLS,
    LieSpan,
    lie_span,
    max_supports,
    monomial_membership,
)
from nicholslie.nichols import (
    GuardrailExceeded,
    _integer_row,
    _integer_vector,
    _RowReducer,
    _shuffle_into,
    _ShuffleTables,
    basis_of_degree,
    pairing_vector,
    symmetrizer_rank_oracle,
)
from nicholslie.scalar import Scalar, _ring_units

from conftest import matrix_from_strings, random_braiding_matrix, random_scalar, rational_matrix
from max_supports_oracle import oracle_equivalence_evidence, oracle_max_supports
from scalar_reducer_oracle import ScalarRowReducer, normalized_pivots
from span_oracle import divided_table, oracle_span, ring_scalar


CONNECTED = [["2", "z"], ["z", "2"]]        # q12 q21 = z^2 != 1
DISCONNECTED = [["2", "z"], ["z^-1", "2"]]  # q12 q21 = 1


def test_span_at_unit_degree_is_generator():
    B = matrix_from_strings(CONNECTED, 8)
    for i, alpha in ((1, (1, 0)), (2, (0, 1))):
        span = lie_span(B, alpha, BRAIDED)
        assert span.dimension == 1
        assert span.generators_used == [(None, (i,))]


def test_span_dimension_two_when_connected():
    B = matrix_from_strings(CONNECTED, 8)
    assert lie_span(B, (1, 1), BRAIDED).dimension == 2


def test_span_dimension_zero_when_disconnected():
    B = matrix_from_strings(DISCONNECTED, 8)
    assert lie_span(B, (1, 1), BRAIDED).dimension == 0


def test_span_basis_is_independent_and_sourced(rng):
    B = random_braiding_matrix(rng, 2, 8)
    span = lie_span(B, (2, 1), BRAIDED)
    # every basis vector is reproduced exactly by its recorded bracketing
    for nv, (tree, word) in zip(span.basis, span.generators_used):
        elem = apply_bracketing(B, tree, word, BRAIDED)
        assert pairing_vector(B, elem).values == nv.values


@pytest.mark.parametrize("kind", [BRAIDED, MINUS])
def test_span_basis_vectors_are_paired_bracketings(rng, kind):
    # spans one degree up shuffle these stored vectors, so each must be
    # exactly the descent's pairing of its recorded bracketing
    for order in (3, 8):
        B = random_braiding_matrix(rng, 2, order)
        lie_span(B, (2, 2), kind)
        spans = [span for (alpha, k), span in B._lie_span_cache.items() if k == kind]
        assert len(spans) == 8  # every 0 < beta <= (2, 2)
        for span in spans:
            for nv, (tree, word) in zip(span.basis, span.generators_used):
                assert nv.values == pairing_vector(B, apply_bracketing(B, tree, word, kind)).values


def test_lie_span_has_no_free_algebra_elements():
    assert "elements" not in {f.name for f in dataclasses.fields(LieSpan)}


def test_lie_span_builds_without_bracket_or_descent(monkeypatch):
    # candidates are paired by shuffling the stored basis vectors: no
    # free-algebra bracket and no skew-derivation descent
    rows = [["-1", "z"], ["z^3", "z^2"]]
    expected = {kind: lie_span(matrix_from_strings(rows, 8), (2, 2), kind) for kind in (BRAIDED, MINUS)}

    def refuse(*args):
        raise AssertionError("the span build left the pairing vectors")

    for name in ("_commutator", "braided_bracket", "minus_bracket"):
        monkeypatch.setattr(f"nicholslie.freealg.{name}", refuse)
    for name in ("_pairings", "_skew"):
        monkeypatch.setattr(f"nicholslie.nichols.{name}", refuse)
    monkeypatch.setattr("nicholslie.lie._pairings", refuse)
    B = matrix_from_strings(rows, 8)
    for kind, span in expected.items():
        assert lie_span(B, (2, 2), kind) == span


def _random_homogeneous(rng, B, degree):
    words = list(words_of_multidegree(degree))
    terms = {tuple(rng.choice(words)): random_scalar(rng, B.order) for _ in range(rng.randint(1, 3))}
    return FreeElement(B.n, B.order, terms)


@pytest.mark.parametrize("rows, order", [
    ([["2", "3", "-1"], ["1/2", "-1", "1"], ["1", "1", "3"]], 1),
    ([["z", "1", "z^2"], ["z^2", "-1", "z"], ["1", "z", "2"]], 3),
    ([["-1", "z", "z^5"], ["z^2", "z^3", "1"], ["-1", "z^7", "-1"]], 8),
], ids=["order-1", "order-3", "order-8"])
def test_bracket_table_pairs_the_bracket(rows, order):
    # the descent is the oracle: f_u and f_v, as integer rows over their
    # scales, shuffled through the integer bracket table and divided by the
    # scales and the table's denominator, must be the pairing vector of
    # v*u - p*u*v, zero where the table is None
    rng = random.Random(13 + order)
    B = matrix_from_strings(rows, order)
    one, zero = Scalar.one(B.order), Scalar.zero(B.order)
    compared = cancelled = 0
    for trial in range(60):
        beta, gamma = (
            tuple(rng.choice([c for c in product(range(4), repeat=3) if 0 < sum(c) <= 3]))
            for _ in range(2)
        )
        alpha = tuple(b + c for b, c in zip(beta, gamma))
        u, v = _random_homogeneous(rng, B, beta), _random_homogeneous(rng, B, gamma)
        if not (u and v):
            continue
        p = (B.chi(gamma, beta), one, random_scalar(rng, order, nonzero=True))[trial % 3]
        bracket = v * u - (u * v).scale(p)
        expected = pairing_vector(B, bracket).values if bracket else (zero,) * multinomial(alpha)
        table = _ShuffleTables(B, alpha).bracket(beta, gamma, p)
        if table is None:
            assert not any(expected), (beta, gamma)
            cancelled += 1
            continue
        table, den = table
        (fu, su), (fv, sv) = (_integer_vector(order, *_integer_row(pairing_vector(B, e).values))
                              for e in (u, v))
        acc = [_ring_units(order)[0]] * multinomial(alpha)
        _shuffle_into(acc, table, fu, fv)
        assert tuple(ring_scalar(order, x, su * sv * den) for x in acc) == expected, (beta, gamma)
        compared += 1
    assert compared >= 30 and cancelled


def _gaussian_binomials(q, d_max):
    # [d, k] at x = q^-1 by the q-Pascal rule [d, k] = [d-1, k-1] + x^k [d-1, k]
    x, one, zero = q.inv(), Scalar.one(q.order), Scalar.zero(q.order)
    rows = [[one]]
    for d in range(1, d_max + 1):
        prev = rows[-1] + [zero]
        rows.append([one] + [prev[k - 1] + x ** k * prev[k] for k in range(1, d + 1)])
    return rows


@pytest.mark.parametrize("entry, order, d_max, vanishing", [
    ("2", 1, 30, None),
    ("-1", 1, 12, (2, 1)),   # 1 + (-1) = 0
    ("z", 3, 12, (3, 1)),    # 1 + z^-1 + z^-2 = 0
])
def test_rank_one_shuffle_weight_is_gaussian_binomial(entry, order, d_max, vanishing):
    # over [[q]] the words of (k) and (d - k) interleave to the one word of
    # (d), with the weights q^-(inversions) summing to the Gaussian binomial
    # [d, k] at q^-1 either way round, and p = chi((d - k), (k)) = q^(k(d-k));
    # so the bracket table's one entry is (1 - q^(k(d-k))) * [d, k], and the
    # table is None where that vanishes
    B = matrix_from_strings([[entry]], order)
    q, one = B.entry(1, 1), Scalar.one(order)
    binomials = _gaussian_binomials(q, d_max)

    def bracket(d, k):  # the integer table divided by its denominator
        return divided_table(order, _ShuffleTables(B, (d,)).bracket((k,), (d - k,), B.chi((d - k,), (k,))))

    for d in range(2, d_max + 1):
        for k in range(1, d):
            weight = (one - q ** (k * (d - k))) * binomials[d][k]
            assert bracket(d, k) == ([[((0, weight),)]] if weight else None), (d, k)
    if vanishing:
        assert not binomials[vanishing[0]][vanishing[1]] and bracket(*vanishing) is None
    if order == 3:  # the product weight [4, 1] is nonzero, but q^(1*3) = 1
        assert binomials[4][1] and bracket(4, 1) is None


def assert_witness_rebuilds(B, letters, report):
    target = pairing_vector(B, FreeElement.from_word(B.n, B.order, letters))
    assert len(report.witness) == report.span.dimension
    combo = [Scalar.zero(B.order)] * len(target.values)
    for coeff, nv in zip(report.witness, report.span.basis):
        combo = [acc + coeff * v for acc, v in zip(combo, nv.values)]
    assert tuple(combo) == target.values


def test_membership_member_when_connected():
    B = matrix_from_strings(CONNECTED, 8)
    report = monomial_membership(B, (2, 1), BRAIDED)
    assert report.status == MEMBER
    # the witness reconstructs the monomial's pairing vector exactly
    assert_witness_rebuilds(B, (2, 1), report)
    # rank 3, orders 3, 8 and 24, spans of dimension >= 2
    for order in (3, 8, 24):
        rng = random.Random(order)
        while True:  # root-power entries keep the arithmetic cheap
            B = BraidingMatrix([[Scalar.root_power(order, rng.randrange(1, order)) for _ in range(3)] for _ in range(3)])
            if len(components(build_graph(B, PURE))) == 1:
                break
        checked = 0
        for letters in [(1, 2, 3), (3, 1, 2), (2, 1, 1), (1, 2, 1, 3), (3, 2, 1, 2), (2, 3, 3, 1)]:
            report = monomial_membership(B, letters, BRAIDED)
            if report.status == MEMBER and report.span.dimension >= 2:
                assert_witness_rebuilds(B, letters, report)
                checked += 1
        assert checked >= 3


def test_membership_rejects_out_of_range_letter():
    B = matrix_from_strings(CONNECTED, 8)
    with pytest.raises(ValueError, match="letter 3 out of range 1..2"):
        monomial_membership(B, (3,), BRAIDED)


def test_membership_not_member_when_disconnected():
    B = matrix_from_strings(DISCONNECTED, 8)
    report = monomial_membership(B, (2, 1), BRAIDED)
    assert report.status == NOT_MEMBER
    assert report.witness is None


def test_membership_span_cache_is_per_matrix():
    # same degree and kind, different matrices: B1's span must not answer for B2
    B1 = matrix_from_strings(CONNECTED, 8)
    B2 = matrix_from_strings(DISCONNECTED, 8)
    assert monomial_membership(B1, (2, 1), BRAIDED).status == MEMBER
    report = monomial_membership(B2, (2, 1), BRAIDED)
    assert report.status == NOT_MEMBER
    assert report.span.dimension == 0


def test_membership_cached_span_honors_tighter_cap():
    # a span cached at the default cap refuses cap 5 with the text of a
    # matrix that has cached nothing
    B = rational_matrix([[2, 2], [2, 2]])
    assert monomial_membership(B, (1, 2, 1), BRAIDED).status == MEMBER
    refusals = []
    for matrix in (B, rational_matrix([[2, 2], [2, 2]])):
        with pytest.raises(GuardrailExceeded) as info:
            monomial_membership(matrix, (1, 2, 1), BRAIDED, max_terms=5)
        refusals.append(str(info.value))
    assert refusals == [
        "Lie span at degree (2, 1) (6 candidates x 3 words, 18 table entries): needs 18 entries, cap is 5"
    ] * 2


def test_membership_zero_status():
    B = matrix_from_strings([["-1", "z"], ["z^-1", "2"]], 8)
    report = monomial_membership(B, (1, 1), BRAIDED)
    assert report.status == ZERO_IN_NICHOLS


def test_generators_always_members(rng):
    for _ in range(6):
        B = random_braiding_matrix(rng, 3, 8)
        for i in (1, 2, 3):
            report = monomial_membership(B, (i,), BRAIDED)
            assert report.status == MEMBER
            assert report.witness == [Scalar.one(8)]


def test_membership_rejects_empty_word():
    B = rational_matrix([[2]])
    with pytest.raises(ValueError):
        monomial_membership(B, (), BRAIDED)


def test_bracket_closure_at_small_degrees(rng):
    # bracketing two basis elements lands inside the span at the sum degree
    from nicholslie.freealg import braided_bracket
    from nicholslie.nichols import _RowReducer

    for _ in range(4):
        B = random_braiding_matrix(rng, 2, 8)
        s1 = lie_span(B, (1, 0), BRAIDED)
        s2 = lie_span(B, (1, 1), BRAIDED)
        target_span = lie_span(B, (2, 1), BRAIDED)
        reducer = _RowReducer()
        for nv in target_span.basis:
            reducer.insert(nv.values)
        for t1, w1 in s1.generators_used:
            e1 = apply_bracketing(B, t1, w1, BRAIDED)
            for t2, w2 in s2.generators_used:
                e2 = apply_bracketing(B, t2, w2, BRAIDED)
                br = braided_bracket(B, e1, e2)
                if not br.terms:
                    continue
                nv = pairing_vector(B, br)
                if nv.is_zero():
                    continue
                assert not any(reducer.reduce(nv.values))


# -- the all-bracketings oracle ----------------------------------------------------
#
# lie_span builds L_alpha from the spans one degree down; the oracle is the
# definition itself: every bracketing tree on every word of alpha, paired.
# For n = 3 vertex 3 keeps no pure edge, so NotMember statuses occur.

ORACLE_MATRICES = {
    (1, 2): [["-1", "2"], ["3", "2"]],
    (1, 3): [["-1", "2", "2"], ["3", "2", "-1"], ["1/2", "-1", "3"]],
    (3, 2): [["z", "z"], ["z", "-1"]],
    (3, 3): [["z", "z", "z^2"], ["z", "-1", "-z"], ["z", "-z^2", "2"]],
    (8, 2): [["z", "z^2"], ["z^3", "-1"]],
    (8, 3): [["z", "z^2", "z^3"], ["z^3", "-1", "2"], ["z^5", "1/2", "z^2"]],
}


def all_bracketings_reducer(B, alpha, kind):
    reducer = ScalarRowReducer()
    for word in words_of_multidegree(alpha):
        for tree in enumerate_bracketings(len(word)):
            elem = apply_bracketing(B, tree, word, kind)
            if elem.terms:
                reducer.insert(pairing_vector(B, elem).values)
    return reducer


@pytest.mark.parametrize("order, n", sorted(ORACLE_MATRICES))
def test_lie_span_matches_all_bracketings_oracle(order, n):
    B = matrix_from_strings(ORACLE_MATRICES[order, n], order)
    statuses = set()
    for kind in (BRAIDED, MINUS):
        oracle = {}
        for alpha in product(range(5), repeat=n):
            if 1 <= sum(alpha) <= 4:
                oracle[alpha] = all_bracketings_reducer(B, alpha, kind)
                dim = lie_span(B, alpha, kind).dimension
                assert dim == oracle[alpha].rank <= basis_of_degree(B, alpha)[1], (kind, alpha)
        for word in product(range(1, n + 1), repeat=3):
            target = pairing_vector(B, FreeElement.from_word(n, order, word))
            if target.is_zero():
                expected = ZERO_IN_NICHOLS
            elif any(oracle[target.degree].reduce(target.values)):
                expected = NOT_MEMBER
            else:
                expected = MEMBER
            assert monomial_membership(B, word, kind).status == expected, (kind, word)
            statuses.add(expected)
    assert {MEMBER, NOT_MEMBER} <= statuses


# -- maximal supports ------------------------------------------------------------

def test_max_supports_disconnected_pair():
    B = matrix_from_strings(DISCONNECTED, 8)
    assert max_supports(B, 3, BRAIDED) == [(1,), (2,)]


def test_max_supports_connected_pair():
    B = matrix_from_strings(CONNECTED, 8)
    assert max_supports(B, 2, BRAIDED) == [(1, 2)]


def test_max_supports_single_generator():
    B = rational_matrix([[2]])
    assert max_supports(B, 2, BRAIDED) == [(1,)]


@pytest.mark.parametrize("d_max", [True, 2.0, "3", None])
def test_max_supports_refuses_a_non_int_bound(d_max):
    # True would run as degree 1 and a float end in range()'s TypeError
    with pytest.raises(ValueError, match="^d_max must be an int, got "):
        max_supports(rational_matrix([[2, 1], [1, -1]]), d_max, BRAIDED)


def test_max_supports_match_components_small_battery():
    rng = random.Random(5150)
    values = ["1", "-1", "2", "z^8"]
    diag = ["-1", "2", "z^8"]
    for _ in range(12):
        rows = [
            [
                rng.choice(diag) if i == j else rng.choice(values)
                for j in range(2)
            ]
            for i in range(2)
        ]
        B = matrix_from_strings(rows, 24)
        comps = components(build_graph(B, PURE))
        assert max_supports(B, 3, BRAIDED) == comps


def _graph_classes():
    """One (n, edges) per isomorphism class of simple graphs on 3 and on 4 vertices."""
    seen, classes = set(), []
    for n in (3, 4):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for mask in range(2 ** len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            canon = min(
                tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges))
                for perm in permutations(range(1, n + 1))
            )
            if (n, canon) not in seen:
                seen.add((n, canon))
                classes.append((n, edges))
    return classes


GRAPH_CLASSES = _graph_classes()

# Diagonal entries -1, zeta_3 = z (order 3), i = z^2 and -1 = z^4 (order 8)
# make x_i^2, x_i^3, x_i^4 zero in B(V), so the scan meets ZeroInNichols words.
ZERO_WORD_MATRICES = [
    (["-1", "z"], ["z^2", "z"]),
    (["z", "1"], ["1", "-1"]),
    (["z", "z", "1"], ["z^2", "-1", "1"], ["1", "1", "z^2"]),
    (["-1", "z^2", "1"], ["z", "z", "z"], ["1", "z", "-1"]),
]
ZERO_WORD_MATRICES_ORDER_8 = [
    (["z^4", "z"], ["z^-1", "z^2"]),
    (["z^2", "z^3"], ["z", "z^4"]),
    (["z^4", "1", "z"], ["1", "z^2", "z^2"], ["z^3", "1", "z^4"]),
    (["z^2", "1", "1"], ["1", "z^4", "z"], ["1", "z^-1", "z^4"]),
]


# (id, builder) pairs; a builder makes a fresh matrix with empty caches
SCAN_MATRICES = [
    (f"graph-{n}-{edges}", lambda n=n, edges=edges: realize_graph(n, edges))
    for n, edges in GRAPH_CLASSES
] + [
    (f"order-{order}-{rows}", lambda rows=rows, order=order: matrix_from_strings(rows, order))
    for order, batch in ((3, ZERO_WORD_MATRICES), (8, ZERO_WORD_MATRICES_ORDER_8))
    for rows in batch
]
scan_matrices = pytest.mark.parametrize(
    "build", [build for _, build in SCAN_MATRICES], ids=[name for name, _ in SCAN_MATRICES]
)


def test_graph_classes_are_the_fifteen():
    assert len(GRAPH_CLASSES) == 15


def test_zero_word_matrices_meet_zero_words():
    for _, build in SCAN_MATRICES[len(GRAPH_CLASSES):]:
        B = build()
        statuses = {monomial_membership(B, (i,) * k, BRAIDED).status
                    for i in range(1, B.n + 1) for k in (2, 3, 4)}
        assert ZERO_IN_NICHOLS in statuses


@scan_matrices
def test_max_supports_match_word_by_word_loop(build, monkeypatch):
    # separate matrices, so neither scan reads spans the other built; the
    # degree scan asks for the first member of each degree at most once
    asked = []

    def counted(B, alpha, *args):
        asked.append(alpha)
        return first_member(B, alpha, *args)

    first_member = lie._first_member
    expected = oracle_max_supports(build(), 4, BRAIDED)
    monkeypatch.setattr("nicholslie.lie._first_member", counted)
    assert max_supports(build(), 4, BRAIDED) == expected
    assert asked and len(asked) == len(set(asked))
    B = build()
    if B.order == 1:
        assert expected == components(build_graph(B, PURE))


@scan_matrices
def test_theorem_equivalences_evidence_matches_word_by_word_loop(build):
    B = build()
    report = verify.check_theorem_equivalences(B, d_max=B.n + 1)
    assert report.evidence == oracle_equivalence_evidence(build(), B.n + 1)
    assert report.verdict in (verify.CONFIRMED, verify.COUNTEREXAMPLE)


@pytest.mark.parametrize("n, edges", [(2, [(1, 2)]), (3, [(1, 2), (2, 3)])])
def test_max_supports_stops_at_the_full_support(n, edges):
    # once {1..n} is a member every later word is covered; without the
    # stop a bound of 60 enumerates n^d words at every degree d <= 60
    full = [tuple(range(1, n + 1))]
    assert max_supports(realize_graph(n, edges), 60, BRAIDED) == full
    for d_max in range(n, n + 3):
        assert max_supports(realize_graph(n, edges), d_max, BRAIDED) == full
        assert oracle_max_supports(realize_graph(n, edges), d_max, BRAIDED) == full


def test_degree_walk_skips_only_what_a_member_met_earlier_covers(monkeypatch):
    # take the first member of (1, 1, 1) to be x2 x1 x3: (1, 0, 2), whose
    # least word x1 x3 x3 the word scan meets before it, is still asked, and
    # (0, 2, 1), whose least word x2 x2 x3 comes after it, is covered
    asked = []
    members = {(1, 0, 0): (1,), (0, 1, 0): (2,), (0, 0, 1): (3,), (1, 1, 1): (2, 1, 3)}

    def first_member(B, alpha, kind, cap):
        asked.append(alpha)
        return members.get(alpha)

    monkeypatch.setattr("nicholslie.lie._first_member", first_member)
    assert max_supports(realize_graph(3, []), 3, BRAIDED) == [(1, 2, 3)]
    assert asked[-2:] == [(1, 1, 1), (1, 0, 2)]


def test_a_build_that_pairs_nothing_makes_no_shuffle_tables(monkeypatch):
    # x1^2 = x2^2 = 0 and q12 q21 = 1: (2, 0) and (1, 1) pair their
    # generators, and every split of (2, 1) has an empty side
    made = []

    class Recording(_ShuffleTables):
        def __init__(self, B, alpha):
            made.append(alpha)
            super().__init__(B, alpha)

    monkeypatch.setattr("nicholslie.lie._ShuffleTables", Recording)
    B = BraidingMatrix.from_strings([["-1", "1"], ["1", "-1"]], 1)
    assert lie_span(B, (2, 1), BRAIDED).dimension == 0
    assert made == [(2, 0), (1, 1)]


CACHED_SCAN_GRAPHS = [
    (3, [(1, 2)]), (3, [(1, 2), (2, 3)]), (4, [(1, 2), (3, 4)]), (4, [(1, 3), (2, 3), (3, 4)]),
]


def _scans(B):
    return max_supports(B, B.n + 1, BRAIDED), verify.check_theorem_equivalences(B).to_dict()


def test_scans_decide_membership_from_the_cached_span(monkeypatch):
    # once every span the scans need is cached, a member word is paired and
    # reduced by its span's solver: no row reducer is built for a witness
    matrices = [realize_graph(n, edges) for n, edges in CACHED_SCAN_GRAPHS]
    expected = [_scans(B) for B in matrices]

    def refuse(*args):
        raise AssertionError("built a row reducer")

    monkeypatch.setattr("nicholslie.lie._RowReducer", refuse)
    assert [_scans(B) for B in matrices] == expected


def test_scans_enter_monomial_membership_only_on_a_span_refusal(monkeypatch):
    # no span guard refuses at the default cap, so the scans never fall back
    asked = []

    def counted(B, word, *args):
        asked.append(word)
        return monomial_membership(B, word, *args)

    monkeypatch.setattr("nicholslie.lie.monomial_membership", counted)
    for n, edges in CACHED_SCAN_GRAPHS:
        _scans(realize_graph(n, edges))
    assert asked == []


def test_max_supports_skips_zero_words_beyond_the_span_guard(monkeypatch):
    # x1^2 = x2^2 = 0 and q12 q21 = 1: every span above degree 1 is empty and
    # every word at (2, 1) and (1, 2) is zero.  The largest need is 2, at
    # (1, 1), so at cap 10 no span is refused, and no word is paired
    def refuse(*args):
        raise AssertionError("paired a word")

    rows = [["-1", "1"], ["1", "-1"]]
    monkeypatch.setattr("nicholslie.lie._pairings", refuse)
    assert max_supports(BraidingMatrix.from_strings(rows, 1), 3, BRAIDED, max_terms=10) == [(1,), (2,)]
    monkeypatch.undo()
    with pytest.raises(GuardrailExceeded) as exc:
        max_supports(BraidingMatrix.from_strings(rows, 1), 3, BRAIDED, max_terms=1)
    # at cap 1 the span at (1, 1) is refused, so x1 x2 goes to
    # monomial_membership, whose pairing vector of 2 entries is refused first
    assert str(exc.value) == "pairing vector at degree (1, 1): needs 2 entries, cap is 1"
    with pytest.raises(GuardrailExceeded) as oracle_exc:
        oracle_max_supports(BraidingMatrix.from_strings(rows, 1), 3, BRAIDED, max_terms=1)
    assert str(oracle_exc.value) == str(exc.value)


def test_equivalence_booleans_small_battery():
    rng = random.Random(616)
    values = ["1", "-1", "2", "z"]
    diag = ["-1", "2", "z"]
    for _ in range(10):
        rows = [
            [rng.choice(diag) if i == j else rng.choice(values) for j in range(2)]
            for i in range(2)
        ]
        B = matrix_from_strings(rows, 3)
        connected = len(components(build_graph(B, PURE))) == 1
        desc = monomial_membership(B, (2, 1), BRAIDED).status == MEMBER
        asc = monomial_membership(B, (1, 2), BRAIDED).status == MEMBER
        assert connected == desc == asc


def test_minus_span_inside_braided_at_trivial_braiding():
    # with all off-diagonal entries 1 the two brackets agree up to the
    # diagonal scalars; check the degenerate all-ones matrix
    B = rational_matrix([[1, 1], [1, 1]])
    for alpha in [(1, 1), (2, 1)]:
        minus_span = lie_span(B, alpha, MINUS)
        braided_span = lie_span(B, alpha, BRAIDED)
        from nicholslie.nichols import _RowReducer

        reducer = _RowReducer()
        for nv in braided_span.basis:
            reducer.insert(nv.values)
        for nv in minus_span.basis:
            assert not any(reducer.reduce(nv.values))


def test_lie_span_guardrail():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(GuardrailExceeded):
        lie_span(B, (3, 3), BRAIDED, max_terms=10)


def test_shuffle_kernel_lives_in_nichols():
    # nichols owns the pairing-vector layout and both ways of filling it;
    # lie only imports the shuffle kernel and builds no dual-word index
    for name in ("_ShuffleTables", "_shuffle_into"):
        assert getattr(lie, name) is getattr(nichols, name)
        assert getattr(lie, name).__module__ == "nicholslie.nichols"
    assert not hasattr(lie, "_multidegree_words")


def test_lie_span_guard_precedes_candidate_build(monkeypatch):
    # the spans below (14,) are built first, each under its own guard; (k,)
    # pairs k - 1 candidates of one word through k - 1 table entries, so the
    # first refused is (7,), before its shuffle tables are made
    made = []

    class Recording(_ShuffleTables):
        def __init__(self, B, alpha):
            made.append(alpha)
            super().__init__(B, alpha)

    monkeypatch.setattr("nicholslie.lie._ShuffleTables", Recording)
    B = rational_matrix([[2]])
    with pytest.raises(GuardrailExceeded) as info:
        lie_span(B, (14,), BRAIDED, max_terms=5)
    assert str(info.value) == (
        "Lie span at degree (7,) (6 candidates x 1 words, 6 table entries): needs 6 entries, cap is 5"
    )
    assert made == [(2,), (3,), (4,), (5,), (6,)]
    # admitted, the refused degree is what is built next
    lie_span(B, (7,), BRAIDED, max_terms=6)
    assert made == [(2,), (3,), (4,), (5,), (6,), (7,)]


@pytest.mark.parametrize("rows, order", [
    ([["2", "2"], ["2", "2"]], 1),
    ([["-1", "1"], ["1", "3"]], 1),
    ([["z", "z^2"], ["1", "-1"]], 3),
    ([["-1", "z"], ["z^3", "z^2"]], 8),
    ([["2", "2", "1"], ["2", "-1", "3"], ["1", "3", "2"]], 1),
    ([["-1", "z", "1"], ["z", "-1", "z^2"], ["1", "z", "-1"]], 3),
    ([["z", "z^3", "1"], ["z^5", "-1", "z"], ["1", "z^7", "z^2"]], 8),
])
@pytest.mark.parametrize("kind", [BRAIDED, MINUS])
def test_lie_span_candidates_within_guard_bound(rows, order, kind, monkeypatch):
    # a build at alpha pairs the splits whose spans are both nonempty, less
    # the mirrored ones; its guard counts those too and needs the larger of
    # (sum dim L_beta * dim L_gamma) * m(alpha) and the table bound,
    # m(alpha) * min(prod C(alpha_i, beta_i), m(beta) * m(gamma)) summed
    # over those splits, never more than (d - 1) * m(alpha)^2, and its span
    # keeps that need.  The candidates it offers, times m(alpha), and the
    # entries of the tables it makes never exceed it
    offered, entries, building = {}, {}, []
    build = lie._build

    def recorded(B, alpha, *args):
        building.append(alpha)
        try:
            return build(B, alpha, *args)
        finally:
            building.pop()

    class CountingTables(_ShuffleTables):
        def bracket(self, beta, gamma, p):
            table = super().bracket(beta, gamma, p)
            cells = sum(len(entry) for row in table[0] for entry in row) if table else 0
            entries[building[-1]] = entries.get(building[-1], 0) + cells
            return table

    class CountingReducer(_RowReducer):
        def insert_integers(self, row, order):
            offered[building[-1]] = offered.get(building[-1], 0) + 1
            return super().insert_integers(row, order)

    monkeypatch.setattr("nicholslie.lie._build", recorded)
    monkeypatch.setattr("nicholslie.lie._ShuffleTables", CountingTables)
    monkeypatch.setattr("nicholslie.lie._RowReducer", CountingReducer)
    B = matrix_from_strings(rows, order)
    for d in range(2, 5):
        for alpha in (a for a in product(range(d + 1), repeat=B.n) if sum(a) == d):
            lie_span(B, alpha, kind)
    spans = {degree: span for (degree, k), span in B._lie_span_cache.items() if k == kind}
    for alpha in offered.keys() - {a for a in offered if sum(a) == 1}:
        m, paired, cells = multinomial(alpha), 0, 0
        for beta in product(*(range(a + 1) for a in alpha)):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            if 0 < sum(beta) < sum(alpha):
                left, right = spans[beta], spans[gamma]
                if left.basis and right.basis:
                    paired += left.dimension * right.dimension
                    cells += m * min(prod(map(comb, alpha, beta)), multinomial(beta) * multinomial(gamma))
        need = max(paired * m, cells)
        assert need == spans[alpha]._need[0] <= spans[alpha]._top, alpha
        assert offered[alpha] * m <= need and entries.get(alpha, 0) <= need <= (sum(alpha) - 1) * m * m, alpha
    assert entries


BAD_BRACKET_KIND = "bracket kind must be 'braided' or 'minus', got 'classical'"


def test_lie_span_rejects_bad_kind():
    B = rational_matrix([[2]])
    with pytest.raises(ValueError) as info:
        lie_span(B, (1,), "classical")
    assert str(info.value) == BAD_BRACKET_KIND


@pytest.mark.parametrize("call", [
    lambda B: apply_bracketing(B, None, (1,), "classical"),
    lambda B: monomial_membership(B, (1,), "classical"),
    lambda B: max_supports(B, 1, "classical"),
], ids=["apply_bracketing", "monomial_membership", "max_supports"])
def test_bracket_entry_points_reject_bad_kind(call):
    with pytest.raises(ValueError) as info:
        call(rational_matrix([[2]]))
    assert str(info.value) == BAD_BRACKET_KIND


# -- the span build against the former one ---------------------------------------
# span_oracle pairs every split through two product tables, with a suffix-shuffle
# memo per alpha; lie_span pairs each split through one bracket table, skips each
# mirrored split gamma > beta with p * p' = 1, offers nothing at a split whose
# table cancels, stops at full rank, keeps the memo on B, and relabels the span
# of an earlier degree of the same shape instead of building one.  Every span
# must equal the oracle's; a relabelled degree asks for no table.

SPAN_BUILD_MATRICES = [
    ([["-1", "2"], ["3", "2"]], 1),
    ([["-1", "2"], ["1/2", "-1"]], 1),         # q12 q21 = 1 and q_ii^2 = 1
    ([["-1", "2", "2"], ["3", "2", "-1"], ["1/2", "-1", "3"]], 1),
    ([["-1", "2", "1"], ["1/2", "-1", "3"], ["1", "1/3", "2"]], 1),
    ([["z", "z"], ["1", "-1"]], 3),            # q11^2 q12 q21 = 1: (1,0) mirrors (1,1)
    ([["z", "z"], ["z", "-1"]], 3),
    ([["z", "z", "z^2"], ["z", "-1", "-z"], ["z", "-z^2", "2"]], 3),
    ([["-1", "z", "1"], ["z", "-1", "z^2"], ["1", "z", "-1"]], 3),
    ([["z", "z^2"], ["z^3", "-1"]], 8),
    ([["z^4", "z^3"], ["z^5", "z^2"]], 8),     # q12 q21 = 1
    ([["z", "z^2", "z^3"], ["z^3", "-1", "2"], ["z^5", "1/2", "z^2"]], 8),
    ([["z", "z^3", "1"], ["z^5", "-1", "z"], ["1", "z^7", "z^2"]], 8),
]


def _served_by_shape(B, alpha, kind):
    """Whether the cached span at alpha shares its solver with the span of
    another degree: it was relabelled from that degree, not built."""
    solver = B._lie_span_cache[(alpha, kind)].solver
    return any(span.solver is solver for (degree, k), span in B._lie_span_cache.items()
               if k == kind and degree != alpha)


def _plain(rows) -> list:
    """(pairs, scale) integer rows with each element of Z[zeta_N] as its ints."""
    return [([(k, x if type(x) is int else x.c) for k, x in pairs], scale) for pairs, scale in rows]


def assert_matches_former_build(B, kind, monkeypatch):
    calls = {}  # alpha -> the splits beta whose bracket table was asked for, in order

    class Recording(_ShuffleTables):
        def __init__(self, B, alpha):
            super().__init__(B, alpha)
            self.calls = calls.setdefault(alpha, [])

        def bracket(self, beta, gamma, p):
            self.calls.append(beta)
            return super().bracket(beta, gamma, p)

    monkeypatch.setattr("nicholslie.lie._ShuffleTables", Recording)
    oracle_B = BraidingMatrix(B._rows)
    d_max = 5 if B.n == 2 else 4
    spans, oracle_paired = {}, {}
    for alpha in product(range(d_max + 1), repeat=B.n):
        if 1 <= sum(alpha) <= d_max:
            span = lie_span(B, alpha, kind)
            expected = oracle_span(oracle_B, alpha, kind, spans, oracle_paired)
            assert span.basis == expected.basis, alpha
            assert span.generators_used == expected.generators_used, alpha
            assert normalized_pivots(span.solver, B.order) == normalized_pivots(expected.solver, B.order)
            # the rows kept from the candidates are those read from the scalars
            assert _plain(span._integer_rows) == _plain(
                _integer_vector(B.order, *_integer_row(nv.values)) for nv in span.basis), alpha
    skipped = 0
    for alpha, paired in oracle_paired.items():
        asked = calls.pop(alpha, None)
        if asked is None:  # no table at all: relabelled from an earlier degree of its shape
            assert _served_by_shape(B, alpha, kind), alpha
            continue
        mirrored = [
            beta for beta in paired
            if beta > (gamma := tuple(a - b for a, b in zip(alpha, beta)))
            and (kind == MINUS or (B.chi(beta, gamma) * B.chi(gamma, beta)).is_one())
        ]
        unmirrored = [b for b in paired if b not in mirrored]
        # a prefix of the oracle's splits, cut short only by a full span
        assert asked == unmirrored[:len(asked)], alpha
        assert len(asked) == len(unmirrored) or spans[alpha].dimension == multinomial(alpha)
        skipped += len(mirrored)
    assert not any(calls.values())  # no table for a split the oracle leaves unpaired
    return skipped


@pytest.mark.parametrize("rows, order", SPAN_BUILD_MATRICES)
@pytest.mark.parametrize("kind", [BRAIDED, MINUS])
def test_lie_span_matches_the_former_build(rows, order, kind, monkeypatch):
    skipped = assert_matches_former_build(matrix_from_strings(rows, order), kind, monkeypatch)
    assert skipped or kind == BRAIDED  # every minus build above degree 1 skips


@pytest.mark.parametrize("order, pool", [
    (1, ["1", "-1", "2", "1/2", "3"]),
    (3, ["1", "-1", "z", "z^2", "-z"]),
    (8, ["1", "-1", "z", "z^7", "z^2", "z^6"]),
])
@pytest.mark.parametrize("n", [2, 3])
def test_lie_span_matches_the_former_build_on_drawn_matrices(order, pool, n, monkeypatch):
    # entries drawn from a small pool, so that p * p' = 1 happens at some
    # splits and not at others
    rng = random.Random(order * 10 + n)
    skipped = 0
    for _ in range(3):
        B = matrix_from_strings([[rng.choice(pool) for _ in range(n)] for _ in range(n)], order)
        skipped += assert_matches_former_build(B, BRAIDED, monkeypatch)
        assert_matches_former_build(B, MINUS, monkeypatch)
    assert skipped


@pytest.mark.parametrize("B, blocks", [
    (realize_graph(4, [(1, 2), (3, 4)]), [{1, 2}, {3, 4}]),
    # q13 q31 = q23 q32 = 1; no diagonal entry is a root of unity
    (matrix_from_strings([["2", "z", "z^3"], ["z^2", "3", "z^6"], ["z^5", "z^2", "-2"]], 8),
     [{1, 2}, {3}]),
], ids=["two-edges", "order-8"])
def test_bracket_table_cancels_exactly_at_cross_block_splits(B, blocks):
    # x_i x_j = q_ij x_j x_i in B(V) when q_ij q_ji = 1, so [u, v] vanishes
    # when u and v lie in different blocks; with no diagonal root of unity,
    # no other split cancels up to degree 4
    cancelled = 0
    for alpha in product(range(4), repeat=B.n):
        if 2 <= sum(alpha) <= 4:
            tables = _ShuffleTables(B, alpha)
            for beta in product(*(range(a + 1) for a in alpha)):
                if 0 < sum(beta) < sum(alpha):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    supports = [{i for i, c in enumerate(e, 1) if c} for e in (beta, gamma)]
                    cross = any(supports[0] <= b and supports[1] <= c
                                for b in blocks for c in blocks if b is not c)
                    table = tables.bracket(beta, gamma, B.chi(gamma, beta))
                    assert (table is None) == cross, (alpha, beta)
                    cancelled += cross
    assert cancelled


@pytest.mark.parametrize("B, degrees", [
    (realize_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]), [(1, 1, 1, 1)]),
    (matrix_from_strings([["z", "z^2"], ["z^3", "-1"]], 8),
     [a for a in product(range(5), repeat=2) if 1 <= sum(a) <= 4]),
], ids=["K4", "order-8"])
def test_span_build_offers_no_row_after_full_rank(B, degrees, monkeypatch):
    # a span of rank m(alpha) refuses every row, so the build offers none
    late, full = [], []

    class Recording(_RowReducer):  # lie._span offers its rows as integers
        def insert_integers(self, row, order):
            if self.rank == len(row):
                late.append(len(row))
            grew = super().insert_integers(row, order)
            if grew and self.rank == len(row):
                full.append(len(row))
            return grew

    monkeypatch.setattr("nicholslie.lie._RowReducer", Recording)
    for alpha in degrees:
        lie_span(B, alpha, BRAIDED)
    assert late == [] and max(full) > 2
    if B.n == 4:
        assert lie_span(B, (1, 1, 1, 1), BRAIDED).dimension == 24


# The work of one max_supports(B, 4, "braided") scan over each graph class on a
# fresh matrix: the bracket tables built, their nonzero entries, the rows
# offered to the reducer and the integer rows derived for the spans' basis
# vectors.  The counts are deterministic, and the seed-1 work gates of
# perfbench see no integer work, so these caps stand in for them: a change
# may lower a count, never raise it.  Each integer row is derived once, in
# the build that keeps its vector, and never again by a build that pairs it.
SPAN_WORK_CAPS = {"tables": 251, "entries": 1035, "rows": 404, "derived": 240}
# The suffix shuffles that go through _merged, a dict merge: those of two
# words with the same first letter, where a dual word can repeat; any other
# pair joins its two halves as they are.
SUFFIX_SHUFFLE_MERGES = 50


def test_span_builds_stay_within_their_work_caps(monkeypatch):
    counts = dict.fromkeys([*SPAN_WORK_CAPS, "kept", "merges"], 0)

    class CountingTables(_ShuffleTables):
        def bracket(self, beta, gamma, p):
            table = super().bracket(beta, gamma, p)
            counts["tables"] += 1
            if table is not None:
                counts["entries"] += sum(len(entry) for row in table[0] for entry in row)
            return table

    class CountingReducer(_RowReducer):
        def insert_integers(self, row, order):
            counts["rows"] += 1
            grew = super().insert_integers(row, order)
            counts["kept"] += grew
            return grew

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    monkeypatch.setattr("nicholslie.lie._ShuffleTables", CountingTables)
    monkeypatch.setattr("nicholslie.lie._RowReducer", CountingReducer)
    monkeypatch.setattr("nicholslie.lie._integer_vector", counting("derived", _integer_vector))
    monkeypatch.setattr("nicholslie.nichols._merged", counting("merges", nichols._merged))
    for n, edges in GRAPH_CLASSES:
        max_supports(realize_graph(n, edges), 4, BRAIDED)
    assert all(0 < counts[k] <= cap for k, cap in SPAN_WORK_CAPS.items()), counts
    assert counts["derived"] <= counts["kept"], counts
    assert counts["merges"] == SUFFIX_SHUFFLE_MERGES, counts


# The matrices of perfbench's zeroness-mixed workload (augmented graph split
# {1,2} | {3} or discrete; orders 1, 3 and 8), copied so that the caps below
# do not move with the benchmark
ZERONESS_MATRICES = [
    ([["2", "1"], ["1", "-1"]], 1),
    ([["-1", "1"], ["1", "-1"]], 1),
    ([["z", "1"], ["1", "z^2"]], 3),
    ([["z", "1"], ["1", "z^3"]], 8),
    ([["-1", "1"], ["1", "z^2"]], 8),
    ([["2", "2", "1"], ["2", "2", "1"], ["1", "1", "2"]], 1),
    ([["-1", "2", "1"], ["2", "-1", "1"], ["1", "1", "-1"]], 1),
    ([["z", "z^2", "1"], ["z", "-1", "1"], ["1", "1", "z"]], 3),
    ([["z", "z^3", "1"], ["z^5", "-1", "1"], ["1", "1", "z^2"]], 8),
    ([["z", "2", "1"], ["2", "z", "1"], ["1", "1", "2"]], 8),
    ([["2", "1", "1"], ["1", "-1", "1"], ["1", "1", "2"]], 1),
    ([["z", "1", "1"], ["1", "z", "1"], ["1", "1", "z"]], 3),
    ([["z", "1", "1"], ["1", "z^2", "1"], ["1", "1", "z^3"]], 8),
    ([["-1", "1", "1"], ["1", "2", "1"], ["1", "1", "z^4"]], 8),
]
DIMENSION_MATRICES = [([["-1", "z^3"], ["z^2", "z^7"]], 24),
                      ([["2", "z^8", "1"], ["-1", "z^3", "z^8"], ["1", "2", "-1"]], 24)]
# The integer work of the pairing descent, the symmetrizer and the prop
# checks' classical brackets, which the traced scalar counts do not see: D_i
# steps and the words they emit, misses of the short-row memo, symmetrizer
# rows, and the term pairs len(x) * len(y) of every _commutator call
DESCENT_WORK_CAPS = {"steps": 177908, "emitted": 1866345, "row misses": 407, "symmetrizer rows": 150,
                     "bracket term pairs": 252821}


def test_descent_and_symmetrizer_stay_within_their_work_caps(monkeypatch):
    counts = dict.fromkeys(DESCENT_WORK_CAPS, 0)
    skew, pairing_row, symmetrizer_rows = nichols._skew, nichols._pairing_row, nichols._symmetrizer_rows
    commutator = freealg._commutator

    def counted_skew(B, i, terms):
        counts["steps"] += 1
        counts["emitted"] += sum(word.count(i) for word in terms)
        return skew(B, i, terms)

    def counted_row(B, word):
        counts["row misses"] += word not in B._pairing_row_cache
        return pairing_row(B, word)

    def counted_rows(B, alpha):
        for row in symmetrizer_rows(B, alpha):
            counts["symmetrizer rows"] += 1
            yield row

    def counted_commutator(x, y, p):
        counts["bracket term pairs"] += len(x) * len(y)
        return commutator(x, y, p)

    monkeypatch.setattr(nichols, "_skew", counted_skew)
    monkeypatch.setattr(nichols, "_pairing_row", counted_row)
    monkeypatch.setattr(nichols, "_symmetrizer_rows", counted_rows)
    monkeypatch.setattr(freealg, "_commutator", counted_commutator)
    monkeypatch.setattr(verify, "_commutator", counted_commutator)
    for rows, order in ZERONESS_MATRICES:
        B = matrix_from_strings(rows, order)
        for d in range(2, 6):
            for w in product(range(1, B.n + 1), repeat=d):
                verify.check_prop_all_bracketings(B, w)
                for cut in range(1, d):
                    verify.check_prop_disconnected_pair(B, w[:cut], w[cut:])
    for rows, order in DIMENSION_MATRICES:
        B = matrix_from_strings(rows, order)
        for alpha in product(range(5), repeat=B.n):
            if 1 <= sum(alpha) <= 4:
                assert basis_of_degree(B, alpha)[1] == symmetrizer_rank_oracle(B, alpha), alpha
    assert all(0 < counts[k] <= cap for k, cap in DESCENT_WORK_CAPS.items()), counts


def test_member_test_matches_monomial_membership():
    # every word of degree <= 4, against monomial_membership on a fresh
    # matrix: empty spans, full spans (no pairing) and the solver
    met = set()
    for rows, order in SPAN_BUILD_MATRICES:
        for kind in (BRAIDED, MINUS):
            B, oracle_B = (matrix_from_strings(rows, order) for _ in range(2))
            for d in range(1, 5):
                for word in product(range(1, B.n + 1), repeat=d):
                    expected = monomial_membership(oracle_B, word, kind).status == MEMBER
                    assert lie._is_member(B, word, kind, 10**6) == expected, (rows, kind, word)
                    span = B._lie_span_cache[(word_degree(word, B.n), kind)]
                    if d > 1:
                        met.add("full" if span.dimension == multinomial(span.degree) else
                                "empty" if not span.basis else "partial")
    assert met == {"full", "empty", "partial"}


def test_suffix_shuffles_are_kept_per_matrix():
    # the suffix shuffles of a word pair depend on B and the words alone, so a
    # build reuses those an earlier degree computed on the same matrix
    rows = [["z", "z"], ["1", "-1"]]
    B, emptied, fresh = (matrix_from_strings(rows, 3) for _ in range(3))
    assert B._shuffle_cache is None  # made by the first build, not with the matrix
    for matrix in (B, emptied):
        lie_span(matrix, (2, 2), BRAIDED)
    # (suffix shuffles, factors, inverse numerators, inverse denominators)
    for memo in emptied._shuffle_cache[:2]:
        memo.clear()
    shuffles = B._shuffle_cache[0]
    before = len(shuffles)
    for matrix in (B, emptied, fresh):
        lie_span(matrix, (2, 3), BRAIDED)
    new = len(shuffles) - before
    assert 0 < new < len(emptied._shuffle_cache[0]) <= len(fresh._shuffle_cache[0])


def test_matrix_caches_make_no_reference_cycle():
    # BraidingMatrix has no weakref slot; with the collector off, anything a
    # span build leaves in a cycle survives del B and is found by collect.
    # The order-3 matrix keeps scalar._Cyclotomic weights in its memos, the
    # rational one plain ints; both keep their inverse tables there
    gc.collect()
    gc.disable()
    try:
        for build, supports in ((lambda: realize_graph(4, [(1, 2), (3, 4)]), [(1, 2), (3, 4)]),
                                (lambda: matrix_from_strings(CONNECTED, 3), [(1, 2)])):
            B = build()  # the loop keeps no reference to it
            assert max_supports(B, 4, BRAIDED) == supports
            assert B._lie_span_cache and B._shuffle_cache[0] and B._shape_cache
            assert len(B._shuffle_cache[2]) == len(B._shuffle_cache[3]) == B.n
            del B
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_shape_map_is_made_by_the_first_span_build():
    # like the shuffle memos, the shape map is not allocated with the matrix:
    # elimination and pairing make none, and every span build records its
    # span there, a span over every letter too
    B = realize_graph(3, [(1, 2)])
    basis_of_degree(B, (2, 1, 1))
    pairing_vector(B, FreeElement.from_word(3, 1, (1, 2, 3)))
    assert B._shape_cache is None
    lie_span(B, (1, 1, 0), BRAIDED)
    assert B._shape_cache
    B = rational_matrix([[2]])
    span = lie_span(B, (4,), BRAIDED)
    recorded, support = B._shape_cache[(BRAIDED, (4,), (((2,), 1),))]
    assert recorded is span and support == (0,)
    assert B._shuffle_cache is not None


# -- spans shared by shape ---------------------------------------------------------
# a degree whose support carries the same exponents and the same principal
# submatrix as an earlier degree's is that degree's span, relabelled through the
# increasing map of supports.  A fresh matrix builds its first degree in full.

def assert_spans_equal_fresh_builds(B):
    for (alpha, kind), span in B._lie_span_cache.items():
        fresh = lie_span(BraidingMatrix(B._rows), alpha, kind)
        assert span.basis == fresh.basis, (alpha, kind)
        assert span.generators_used == fresh.generators_used, (alpha, kind)
        assert list(span.solver._by_lead.items()) == list(fresh.solver._by_lead.items())


@pytest.mark.parametrize("n, edges", GRAPH_CLASSES)
def test_spans_shared_by_shape_equal_fresh_builds(n, edges):
    B = realize_graph(n, edges)
    for kind in (BRAIDED, MINUS):
        for alpha in product(range(5), repeat=n):
            if 1 <= sum(alpha) <= 4:
                lie_span(B, alpha, kind)
    assert_spans_equal_fresh_builds(B)
    # (1, 0, ...) and (0, 1, ...) are generators with q11 = q22 = 2
    assert _served_by_shape(B, (0, 1) + (0,) * (n - 2), BRAIDED)


def test_two_edges_build_each_shape_once():
    # {1, 2} and {3, 4} carry the same submatrix, so each degree on {3, 4} is
    # its twin on {1, 2} with letters 1, 2 read as 3, 4
    B = realize_graph(4, [(1, 2), (3, 4)])
    for low, high in (((1, 1, 0, 0), (0, 0, 1, 1)), ((2, 1, 0, 0), (0, 0, 2, 1))):
        low, high = lie_span(B, low, BRAIDED), lie_span(B, high, BRAIDED)
        assert high.solver is low.solver and high._integer_rows is low._integer_rows and high.basis
        assert [nv.values for nv in high.basis] == [nv.values for nv in low.basis]
        assert all(nv.degree == high.degree for nv in high.basis)
        assert high.generators_used == [(tree, tuple(x + 2 for x in word))
                                        for tree, word in low.generators_used]
    assert_spans_equal_fresh_builds(B)


def test_transposed_pair_does_not_share_a_shape():
    # {1, 2} carries q12 = 2, q21 = 3 and {3, 4} carries q34 = 3, q43 = 2: the
    # decreasing map 1 -> 4, 2 -> 3 would match the submatrices but permute
    # the dual words, so the two spans are built apart
    rows = [["5", "2", "1", "1"], ["3", "5", "1", "1"], ["1", "1", "5", "3"], ["1", "1", "2", "5"]]
    B = matrix_from_strings(rows, 1)
    for kind in (BRAIDED, MINUS):
        for alpha in ((1, 1, 0, 0), (0, 0, 1, 1), (2, 1, 0, 0), (0, 0, 1, 2), (1, 2, 0, 0),
                      (0, 0, 2, 1)):
            lie_span(B, alpha, kind)
        for low, high in (((1, 1, 0, 0), (0, 0, 1, 1)), ((2, 1, 0, 0), (0, 0, 1, 2)),
                          ((1, 2, 0, 0), (0, 0, 2, 1))):
            assert not _served_by_shape(B, high, kind)
    braided = B._lie_span_cache[((1, 1, 0, 0), BRAIDED)], B._lie_span_cache[((0, 0, 1, 1), BRAIDED)]
    assert braided[0].basis[0].values != braided[1].basis[0].values
    assert _served_by_shape(B, (0, 0, 1, 0), BRAIDED)  # q11 = q33: one generator shape
    assert_spans_equal_fresh_builds(B)


def test_spans_of_different_kinds_never_share():
    for n, edges in GRAPH_CLASSES:
        B = realize_graph(n, edges)
        for kind in (BRAIDED, MINUS):
            for alpha in product(range(4), repeat=n):
                if 1 <= sum(alpha) <= 3:
                    lie_span(B, alpha, kind)
        solvers = {kind: {id(span.solver) for (_, k), span in B._lie_span_cache.items() if k == kind}
                   for kind in (BRAIDED, MINUS)}
        assert not solvers[BRAIDED] & solvers[MINUS], (n, edges)
        assert {shape[0] for shape in B._shape_cache} == {BRAIDED, MINUS}
