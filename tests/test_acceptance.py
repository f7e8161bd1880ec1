"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line with
its measured runtime (run with `pytest tests/test_acceptance.py -v -s`).
All equality checks are exact (cyclotomic arithmetic); the only
tolerances are the stated runtime budgets.
"""

import itertools
import random
import time

from nicholslie.braiding import BraidingMatrix
from nicholslie.cli import emit_dot, main
from nicholslie.freealg import (
    BRAIDED,
    FreeElement,
    braided_bracket,
    words_of_total_degree,
)
from nicholslie.graphs import PURE, DynkinGraph, build_graph, components, realize_graph
from nicholslie.lie import max_supports
from nicholslie.nichols import (
    basis_of_degree,
    is_zero_in_nichols,
    symmetrizer_rank_oracle,
)
from nicholslie.scalar import Scalar, euler_phi
from nicholslie.verify import (
    CONFIRMED,
    PRECONDITION_NOT_MET,
    check_prop_all_bracketings,
    check_prop_disconnected_pair,
    check_theorem_equivalences,
    grid_matrices,
    sample_grid_matrices,
)

from conftest import matrix_from_strings, rational_matrix


def report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.1f}s)")


# -- 1. bracket identity suite ---------------------------------------------------


def _random_scalar8(rng, nonzero=False):
    while True:
        s = Scalar.from_poly(8, [rng.randint(-2, 2) for _ in range(euler_phi(8))])
        if s or not nonzero:
            return s


def _random_matrix8(rng, n):
    return BraidingMatrix(
        [[_random_scalar8(rng, nonzero=True) for _ in range(n)] for _ in range(n)]
    )


def _random_homogeneous8(rng, n, max_len=3):
    length = rng.randint(1, max_len)
    letters = tuple(rng.randint(1, n) for _ in range(length))
    elem = FreeElement.from_word(n, 8, letters, _random_scalar8(rng, nonzero=True))
    shuffled = tuple(sorted(letters))
    if shuffled != letters and rng.random() < 0.5:
        elem = elem + FreeElement.from_word(n, 8, shuffled, _random_scalar8(rng))
    return elem


def test_criterion_1_bracket_identities():
    start = time.monotonic()
    rng = random.Random(101)
    n = 3
    trials = 200
    for _ in range(trials):
        B = _random_matrix8(rng, n)
        u = _random_homogeneous8(rng, n)
        v = _random_homogeneous8(rng, n)
        w = _random_homogeneous8(rng, n)
        p_vw = B.chi(v.degree(), w.degree())
        p_wv = B.chi(w.degree(), v.degree())
        p_wu = B.chi(w.degree(), u.degree())
        lhs1 = braided_bracket(B, braided_bracket(B, u, v), w)
        rhs1 = (
            braided_bracket(B, u, braided_bracket(B, v, w))
            + braided_bracket(B, braided_bracket(B, u, w), v).scale(p_vw.inv())
            + (v * braided_bracket(B, u, w)).scale(p_wv - p_vw.inv())
        )
        assert lhs1 == rhs1, "nested-bracket identity failed"
        lhs2 = braided_bracket(B, u, v * w)
        rhs2 = (braided_bracket(B, u, v) * w).scale(p_wu) + v * braided_bracket(B, u, w)
        assert lhs2 == rhs2, "product-expansion identity failed"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, f"{trials} random homogeneous triples over Q(zeta_8), both identities exact", elapsed)


# -- 2. oracle agreement ----------------------------------------------------------

ORACLE_VALUES = ["1", "-1", "2", "z^8", "z^3"]  # zeta_3 = z^8, zeta_8 = z^3 in Q(zeta_24)


def test_criterion_2_dimension_oracles_agree():
    start = time.monotonic()
    rng = random.Random(202)
    matrices = []
    for n in (2, 3):
        for _ in range(26):
            rows = [[rng.choice(ORACLE_VALUES) for _ in range(n)] for _ in range(n)]
            matrices.append(matrix_from_strings(rows, 24))
    assert len(matrices) >= 50
    compared = 0
    for B in matrices:
        degrees = [
            alpha
            for alpha in itertools.product(range(5), repeat=B.n)
            if 1 <= sum(alpha) <= 4
        ]
        for alpha in degrees:
            _, rank = basis_of_degree(B, alpha)
            assert rank == symmetrizer_rank_oracle(B, alpha), (B.to_json(), alpha)
            compared += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(2, f"{len(matrices)} matrices, {compared} degree components, ranks identical", elapsed)


# -- 3. nilpotent-square instance ----------------------------------------------------


def test_criterion_3_square_vanishes_iff_diagonal_is_minus_one():
    start = time.monotonic()
    zero_case = matrix_from_strings([["-1", "z"], ["z^-1", "2"]], 8)
    square = FreeElement.from_word(2, 8, (1, 1))
    assert is_zero_in_nichols(zero_case, square)
    nonzero_case = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    assert not is_zero_in_nichols(nonzero_case, square)
    elapsed = time.monotonic() - start
    report(3, "x1*x1 vanishes at q11=-1 with q12*q21=1, survives at q11=2", elapsed)


# -- 4. equivalence battery ------------------------------------------------------------

GRID_OFF = ["1", "-1", "2", "z"]   # z = zeta_3 at order 3
GRID_DIAG = ["-1", "2", "z"]


def test_criterion_4_equivalences_battery():
    start = time.monotonic()
    n2 = 0
    for B in grid_matrices(2, GRID_OFF, GRID_DIAG, order=3):
        rep = check_theorem_equivalences(B, d_max=2)
        assert rep.verdict == CONFIRMED, (B.to_json(), rep.evidence)
        n2 += 1
    assert n2 == 144  # exhaustive grid
    n3 = 0
    for B in sample_grid_matrices(3, GRID_OFF, GRID_DIAG, order=3, count=100, seed=404):
        rep = check_theorem_equivalences(B, d_max=3)
        assert rep.verdict == CONFIRMED, (B.to_json(), rep.evidence)
        n3 += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(4, f"exhaustive n=2 grid ({n2}) plus seeded n=3 sample ({n3}), all four conditions agree", elapsed)


# -- 5. maximal-support battery -----------------------------------------------------------


def padded_realization(n, edges, order=8):
    """Same pure graph as realize_graph(n, edges) but with p~=1 padding:
    non-edge pairs carry (z^k, z^-k) instead of (1, 1)."""
    z_exponents = itertools.cycle([1, 2, 3])
    rows = [["" for _ in range(n)] for _ in range(n)]
    edge_set = {(min(i, j), max(i, j)) for i, j in edges}
    for i in range(1, n + 1):
        rows[i - 1][i - 1] = "2"
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) in edge_set:
                rows[i - 1][j - 1] = rows[j - 1][i - 1] = "2"
            else:
                k = next(z_exponents)
                rows[i - 1][j - 1] = f"z^{k}"
                rows[j - 1][i - 1] = f"z^-{k}"
    return matrix_from_strings(rows, order)


GRAPHS_N2 = [[], [(1, 2)]]
GRAPHS_N3 = [
    [],
    [(1, 2)],
    [(1, 3)],
    [(2, 3)],
    [(1, 2), (2, 3)],
    [(1, 2), (1, 3)],
    [(1, 3), (2, 3)],
    [(1, 2), (1, 3), (2, 3)],
]
GRAPHS_N4 = [
    [],
    [(1, 2), (2, 3), (3, 4)],          # path
    [(1, 2), (1, 3), (1, 4)],          # star
    [(1, 2), (1, 3), (2, 3)],          # triangle + isolated vertex
    [(1, 2), (3, 4)],                  # two pairs
    [(i, j) for i in range(1, 5) for j in range(i + 1, 5)],  # complete
]
PADDED_N4 = [
    [(1, 2), (2, 3), (3, 4)],
    [(1, 2), (1, 3), (1, 4)],
    [(1, 2), (2, 3), (3, 4), (1, 4)],  # cycle
    [(i, j) for i in range(1, 5) for j in range(i + 1, 5)],
]


def test_criterion_5_max_supports_battery():
    start = time.monotonic()
    instances = []
    for n, graphs in ((2, GRAPHS_N2), (3, GRAPHS_N3), (4, GRAPHS_N4)):
        for edges in graphs:
            instances.append((n, edges, realize_graph(n, edges)))
    for n, graphs in ((2, GRAPHS_N2), (3, GRAPHS_N3)):
        for edges in graphs:
            instances.append((n, edges, padded_realization(n, edges)))
    for edges in PADDED_N4:
        instances.append((4, edges, padded_realization(4, edges)))
    assert len(instances) >= 30
    for n, edges, B in instances:
        expected = components(build_graph(B, PURE))
        got = max_supports(B, n + 1, BRAIDED)
        assert got == expected, (n, edges, got, expected)
        # the designed graph is really the pure graph of the instance
        assert build_graph(B, PURE).sorted_edges() == sorted(
            (min(i, j), max(i, j)) for i, j in edges
        )
    elapsed = time.monotonic() - start
    report(5, f"{len(instances)} designed component structures, supports match components", elapsed)


# -- 6. vanishing-bracketing battery ----------------------------------------------------------

PROP_N2 = [
    ([["2", "1"], ["1", "2"]], 1),
    ([["-1", "1"], ["1", "2"]], 1),
    ([["-1", "1"], ["1", "-1"]], 1),
    ([["2", "1"], ["1", "-1"]], 1),
    ([["z", "1"], ["1", "2"]], 8),
    ([["z", "1"], ["1", "z"]], 8),
    ([["-1", "1"], ["1", "z^2"]], 8),
    ([["z^3", "1"], ["1", "z^5"]], 8),
]

PROP_N3_SPLIT = [  # augmented components {1,2} | {3}
    ([["2", "2", "1"], ["2", "2", "1"], ["1", "1", "2"]], 1),
    ([["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]], 1),
    ([["-1", "2", "1"], ["2", "-1", "1"], ["1", "1", "-1"]], 1),
    ([["2", "-1", "1"], ["1", "2", "1"], ["1", "1", "2"]], 1),
    ([["z", "z^3", "1"], ["z^5", "-1", "1"], ["1", "1", "z^2"]], 8),
    ([["z", "2", "1"], ["2", "z", "1"], ["1", "1", "2"]], 8),
]

PROP_N3_DISCRETE = [  # all off-diagonal entries 1
    ([["2", "1", "1"], ["1", "-1", "1"], ["1", "1", "2"]], 1),
    ([["-1", "1", "1"], ["1", "-1", "1"], ["1", "1", "-1"]], 1),
    ([["z", "1", "1"], ["1", "z^2", "1"], ["1", "1", "z^3"]], 8),
    ([["z", "1", "1"], ["1", "z", "1"], ["1", "1", "z"]], 3),
    ([["2", "1", "1"], ["1", "2", "1"], ["1", "1", "2"]], 1),
    ([["-1", "1", "1"], ["1", "2", "1"], ["1", "1", "z^4"]], 8),
]


def test_criterion_6_vanishing_bracketings_battery():
    start = time.monotonic()
    matrices = [
        matrix_from_strings(rows, order)
        for rows, order in PROP_N2 + PROP_N3_SPLIT + PROP_N3_DISCRETE
    ]
    assert len(matrices) >= 20
    bracketings_checked = 0
    pair_checks = 0
    for B in matrices:
        for length in range(2, 6):
            for word in words_of_total_degree(B.n, length):
                rep = check_prop_all_bracketings(B, word)
                if rep.verdict != PRECONDITION_NOT_MET:
                    assert rep.verdict == CONFIRMED, (B.to_json(), word, rep.evidence)
                    bracketings_checked += rep.evidence["bracketings_checked"]
                for cut in range(1, len(word)):
                    rep2 = check_prop_disconnected_pair(B, word[:cut], word[cut:])
                    if rep2.verdict != PRECONDITION_NOT_MET:
                        assert rep2.verdict == CONFIRMED, (B.to_json(), word, cut)
                        pair_checks += 1
    elapsed = time.monotonic() - start
    report(
        6,
        f"{len(matrices)} matrices, {bracketings_checked} bracketings and "
        f"{pair_checks} factor pairs all vanish",
        elapsed,
    )


# -- 7. determinism and round-trips --------------------------------------------------------------


def test_criterion_7_determinism_and_roundtrips(tmp_path):
    start = time.monotonic()
    # realize o build identity on every simple graph with <= 5 vertices
    graphs = 0
    for n in range(1, 6):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            edges = [p for p, b in zip(pairs, bits) if b]
            G = build_graph(realize_graph(n, edges), PURE)
            assert G.sorted_edges() == sorted(edges)
            graphs += 1

    # DOT output byte-stable, in-process and through the CLI
    B = realize_graph(3, [(1, 2), (2, 3)])
    G = build_graph(B, PURE)
    assert emit_dot(G, B, annotate=True) == emit_dot(G, B, annotate=True)
    path = tmp_path / "m.json"
    path.write_text(B.to_json(), encoding="utf-8")
    import io

    def run_cli():
        buf = io.StringIO()
        code = main(["graph", "--input", str(path), "--kind", "pure", "--dot"], out=buf)
        return code, buf.getvalue()

    assert run_cli() == run_cli()

    # components agree with a breadth-first-search oracle on random graphs
    from test_graphs import bfs_components

    rng = random.Random(707)
    for _ in range(100):
        n = rng.randint(1, 8)
        vertices = frozenset(range(1, n + 1))
        edges = frozenset(
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.35
        )
        G = DynkinGraph(vertices, edges, PURE)
        assert components(G) == bfs_components(vertices, edges)
    elapsed = time.monotonic() - start
    report(7, f"{graphs} graph round-trips, byte-stable DOT, 100 BFS cross-checks", elapsed)
