"""Dynkin graphs: edge rules, components vs a BFS oracle, supports,
connectivity predicates, graph realization round-trips."""

import itertools
import random

import pytest

from nicholslie.braiding import InvalidMatrixError
from nicholslie.graphs import (
    AUGMENTED,
    PURE,
    DynkinGraph,
    abstract_graph_from_json,
    build_graph,
    components,
    generated_subgraph,
    is_connected_monomial,
    monomials_connected,
    realize_graph,
    support,
)

from conftest import matrix_from_strings, random_braiding_matrix, rational_matrix


def bfs_components(vertices, edges):
    """Independent oracle: reachability by breadth-first search."""
    adjacency = {v: [] for v in vertices}
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = set()
    out = []
    for start in sorted(vertices):
        if start in seen:
            continue
        queue = [start]
        comp = set()
        while queue:
            v = queue.pop()
            if v in comp:
                continue
            comp.add(v)
            queue.extend(w for w in adjacency[v] if w not in comp)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return sorted(out)


# -- build_graph ---------------------------------------------------------

def test_pure_graph_no_edge_when_product_one():
    B = matrix_from_strings([["-1", "z"], ["z^-1", "-1"]], 8)
    G = build_graph(B, PURE)
    assert G.sorted_edges() == []


def test_pure_graph_triangle_of_twos():
    B = rational_matrix([[2, 2, 2], [2, 2, 2], [2, 2, 2]])
    G = build_graph(B, PURE)
    assert G.sorted_edges() == [(1, 2), (1, 3), (2, 3)]


def test_augmented_graph_one_sided_edge():
    # q_12 = 1 but q_21 = -1: the unordered pair is still an edge
    B = rational_matrix([[2, 1], [-1, 2]])
    G = build_graph(B, AUGMENTED)
    assert G.sorted_edges() == [(1, 2)]


def test_augmented_edge_survives_where_pure_edge_cancels():
    # q_12 * q_21 = 1 removes the pure edge but not the augmented one
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    assert build_graph(B, PURE).sorted_edges() == []
    assert build_graph(B, AUGMENTED).sorted_edges() == [(1, 2)]
    # only q_ij = q_ji = 1 removes the augmented edge
    B2 = rational_matrix([[2, 1], [1, 2]])
    assert build_graph(B2, AUGMENTED).sorted_edges() == []


def test_build_graph_rejects_bad_kind():
    B = rational_matrix([[2]])
    message = "kind must be 'pure' or 'augmented', got 'decorated'"
    with pytest.raises(ValueError) as info:
        build_graph(B, "decorated")
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        DynkinGraph(frozenset({1}), frozenset(), "decorated")
    assert str(info.value) == message


# -- generated subgraphs ---------------------------------------------------

def triangle():
    return DynkinGraph(frozenset({1, 2, 3}), frozenset({(1, 2), (1, 3), (2, 3)}), PURE)


def path3():
    return DynkinGraph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}), PURE)


def test_generated_subgraph_of_triangle():
    H = generated_subgraph(triangle(), {1, 2})
    assert H.sorted_vertices() == [1, 2]
    assert H.sorted_edges() == [(1, 2)]


def test_generated_subgraph_edgeless():
    G = DynkinGraph(frozenset({1, 2, 3}), frozenset(), PURE)
    H = generated_subgraph(G, {1, 3})
    assert H.sorted_edges() == []
    assert H.sorted_vertices() == [1, 3]


def test_generated_subgraph_drops_outside_edges():
    H = generated_subgraph(path3(), {1, 3})
    assert H.sorted_edges() == []


def test_generated_subgraph_rejects_empty_or_foreign():
    with pytest.raises(ValueError):
        generated_subgraph(path3(), set())
    with pytest.raises(ValueError):
        generated_subgraph(path3(), {1, 7})


# -- components ---------------------------------------------------------------

def test_components_two_isolated():
    G = DynkinGraph(frozenset({1, 2}), frozenset(), PURE)
    assert components(G) == [(1,), (2,)]


def test_components_path_connected():
    assert components(path3()) == [(1, 2, 3)]


def test_components_mixed():
    G = DynkinGraph(frozenset(range(1, 6)), frozenset({(1, 2), (3, 4)}), PURE)
    assert components(G) == [(1, 2), (3, 4), (5,)]


def test_components_partition_property(rng):
    for _ in range(30):
        n = rng.randint(1, 8)
        vertices = frozenset(range(1, n + 1))
        edges = frozenset(
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.3
        )
        G = DynkinGraph(vertices, edges, PURE)
        comps = components(G)
        flat = [v for c in comps for v in c]
        assert sorted(flat) == sorted(vertices)
        assert len(flat) == len(set(flat))


def test_components_match_bfs_oracle():
    rng = random.Random(99)
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


# -- support ---------------------------------------------------------------------

def test_support_examples():
    assert support((2, 1, 2)) == (1, 2)
    assert support((1, 1)) == (1,)
    assert support((3,)) == (3,)


def test_support_empty_word_rejected():
    with pytest.raises(ValueError):
        support(())


# -- monomial connectivity ---------------------------------------------------------

def test_single_letter_always_connected():
    B = matrix_from_strings([["-1", "z"], ["z^-1", "-1"]], 8)
    assert is_connected_monomial(B, (1,), PURE)


def test_disconnected_two_letter_word():
    B = matrix_from_strings([["-1", "z"], ["z^-1", "-1"]], 8)
    assert not is_connected_monomial(B, (1, 2), PURE)


def test_path_endpoints_disconnected():
    B = realize_graph(3, [(1, 2), (2, 3)])
    assert not is_connected_monomial(B, (1, 3), PURE)
    assert is_connected_monomial(B, (1, 2, 3), PURE)


def test_connectivity_depends_only_on_support(rng):
    for _ in range(15):
        B = random_braiding_matrix(rng, 3, 8)
        base = (1, 2, 3)
        scrambles = [(3, 2, 1), (2, 1, 3, 2), (1, 1, 2, 3, 3)]
        expected = is_connected_monomial(B, base, PURE)
        for w in scrambles:
            assert is_connected_monomial(B, w, PURE) == expected


def test_monomials_connected_examples():
    B_conn = rational_matrix([[2, 2], [2, 2]])
    assert monomials_connected(B_conn, (1,), (2,))
    B_disc = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    assert not monomials_connected(B_disc, (1,), (2,))
    B_path = realize_graph(3, [(1, 2), (2, 3)])
    assert monomials_connected(B_path, (1, 2), (3,))  # via the pair (2, 3)


@pytest.mark.parametrize("u, v, letter", [((3,), (1,), 3), ((1,), (2, 0), 0), ((-1, 1), (2,), -1)])
def test_monomials_connected_rejects_out_of_range_letter(u, v, letter):
    # the letters go through word_degree, not into B.entry's IndexError
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(ValueError, match=rf"^letter {letter} out of range 1\.\.2$"):
        monomials_connected(B, u, v)


@pytest.mark.parametrize("word, letter", [((3, 1), 3), ((1, 0), 0)])
def test_is_connected_monomial_rejects_out_of_range_letter(word, letter):
    # the word goes through word_degree, not into generated_subgraph's vertex check
    B = rational_matrix([[2, 2], [2, 2]])
    for kind in (PURE, AUGMENTED):
        with pytest.raises(ValueError, match=rf"^letter {letter} out of range 1\.\.2$"):
            is_connected_monomial(B, word, kind)


# -- realize_graph ------------------------------------------------------------------

def test_realize_single_edge():
    B = realize_graph(2, [(1, 2)])
    two = 2
    assert all(B.entry(i, j) == two for i in (1, 2) for j in (1, 2))


def test_realize_edgeless():
    B = realize_graph(2, [])
    assert B.entry(1, 2).is_one() and B.entry(2, 1).is_one()
    assert B.entry(1, 1) == 2 and B.entry(2, 2) == 2


def test_realize_path():
    B = realize_graph(3, [(1, 2), (2, 3)])
    assert B.entry(1, 2) == 2 and B.entry(2, 1) == 2
    assert B.entry(2, 3) == 2 and B.entry(3, 2) == 2
    assert B.entry(1, 3).is_one() and B.entry(3, 1).is_one()
    G = build_graph(B, PURE)
    assert G.sorted_edges() == [(1, 2), (2, 3)]


@pytest.mark.parametrize("n, edges, message", [
    (True, [], "vertex count must be an int, got True"),
    (2.0, [], "vertex count must be an int, got 2.0"),
    (2, [(True, 2)], "edge (True,2) must join two int vertices"),
    (2, [(1, 2.0)], "edge (1,2.0) must join two int vertices"),
    (0, [], "graph must have at least one vertex"),
    (2, [(1, 3)], "bad edge (1,3) for vertex set 1..2"),
    (2, [(2, 2)], "bad edge (2,2) for vertex set 1..2"),
    (2, [5], "edge 5 must be a pair (i, j)"),
    (2, [(1, 2, 3)], "edge (1, 2, 3) must be a pair (i, j)"),
    (2, [(1,)], "edge (1,) must be a pair (i, j)"),
], ids=["n-bool", "n-float", "endpoint-bool", "endpoint-float", "n-zero", "endpoint-out-of-range",
        "loop", "edge-int", "edge-triple", "edge-single"])
def test_realize_rejects_bad_vertices(n, edges, message):
    # only exact ints are vertices, as in abstract_graph_from_json: a bool
    # compares and counts like an int, so only its type can refuse it
    with pytest.raises(ValueError) as info:
        realize_graph(n, edges)
    assert str(info.value) == message


def all_graphs(n):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        yield [p for p, b in zip(pairs, bits) if b]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_realize_build_roundtrip_exhaustive(n):
    for edges in all_graphs(n):
        G = build_graph(realize_graph(n, edges), PURE)
        assert G.sorted_edges() == sorted(edges)
        assert G.sorted_vertices() == list(range(1, n + 1))


def test_realize_build_roundtrip_n6_exhaustive():
    for edges in all_graphs(6):
        G = build_graph(realize_graph(6, edges), PURE)
        assert G.sorted_edges() == sorted(edges)


def test_pure_graph_transpose_invariant(rng):
    for _ in range(20):
        B = random_braiding_matrix(rng, 4, 8)
        assert build_graph(B, PURE).edges == build_graph(B.transpose(), PURE).edges


def test_abstract_graph_json():
    n, edges = abstract_graph_from_json('{"n": 3, "edges": [[1, 2], [2, 3]]}')
    assert n == 3 and edges == [(1, 2), (2, 3)]
    B = realize_graph(n, edges)
    assert build_graph(B, PURE).sorted_edges() == [(1, 2), (2, 3)]


@pytest.mark.parametrize("doc", [
    '{"n": true, "edges": []}',
    '{"n": 2, "edges": [[1.0, 2]]}',
    '{"n": 2, "edges": [[true, 2]]}',
    '{"n": 2, "edges": [[1, "2"]]}',
    '{"n": 2, "edges": {}}',
    '{"n": 2, "edges": 5}',
], ids=["n-bool", "endpoint-float", "endpoint-bool", "endpoint-str",
        "edges-object", "edges-int"])
def test_abstract_graph_json_rejects_non_int(doc):
    with pytest.raises(InvalidMatrixError):
        abstract_graph_from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ('{"n": 2, "edges": [[1, 2]', "graph document is not valid JSON: "),
    ('[[1, 2]]', "graph document must be a JSON object"),
    ('{"n": 2}', "graph document missing field 'edges'"),
    ('{"edges": []}', "graph document missing field 'n'"),
    ("[" * 100_000, "graph document nests too deeply to decode"),
], ids=["invalid-json", "non-object", "no-edges", "no-n", "deep-nesting"])
def test_abstract_graph_json_rejects_malformed_documents(doc, message):
    # the matrix reader's messages, with "graph" for "matrix"
    with pytest.raises(InvalidMatrixError) as info:
        abstract_graph_from_json(doc)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("edges, message", [
    ({(2, 2)}, "loop edge at vertex 2"),
    ({(1, 4)}, "edge (1,4) leaves the vertex set"),
    ({(3, 1)}, "edge (3,1) not normalized to i < j"),
], ids=["loop", "outside", "unnormalized"])
def test_dynkin_graph_rejects_bad_edges(edges, message):
    with pytest.raises(ValueError) as info:
        DynkinGraph(frozenset({1, 2, 3}), frozenset(edges), PURE)
    assert str(info.value) == message
