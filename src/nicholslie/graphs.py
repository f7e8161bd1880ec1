"""Generalized Dynkin graphs of a braiding matrix.

Two graphs live on the vertex set {1..n}: the pure graph has an edge
{i,j} exactly when q_ij * q_ji != 1, the augmented graph exactly when
q_ij != 1 or q_ji != 1.  Connectivity of monomials is read off the
subgraph generated by their support.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braiding import BraidingMatrix, InvalidMatrixError, _read_document
from .freealg import _check_choice, word_degree
from .scalar import Scalar

__all__ = [
    "PURE",
    "AUGMENTED",
    "DynkinGraph",
    "build_graph",
    "generated_subgraph",
    "components",
    "support",
    "is_connected_monomial",
    "monomials_connected",
    "realize_graph",
    "abstract_graph_from_json",
]

PURE = "pure"
AUGMENTED = "augmented"


@dataclass(frozen=True)
class DynkinGraph:
    """Undirected simple graph; edges are stored as (i, j) pairs with i < j."""

    vertices: frozenset
    edges: frozenset
    kind: str

    def __post_init__(self):
        _check_choice(self.kind, (PURE, AUGMENTED), "kind")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"loop edge at vertex {i}")
            if i not in self.vertices or j not in self.vertices:
                raise ValueError(f"edge ({i},{j}) leaves the vertex set")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not normalized to i < j")

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def sorted_vertices(self):
        return sorted(self.vertices)

    def sorted_edges(self):
        return sorted(self.edges)


def build_graph(B: BraidingMatrix, kind: str) -> DynkinGraph:
    """The pure or augmented Dynkin graph of a braiding matrix."""
    _check_choice(kind, (PURE, AUGMENTED), "kind")
    edges = set()
    for i in range(1, B.n + 1):
        for j in range(i + 1, B.n + 1):
            if kind == PURE:
                present = not B.p_tilde(i, j).is_one()
            else:
                present = not B.entry(i, j).is_one() or not B.entry(j, i).is_one()
            if present:
                edges.add((i, j))
    return DynkinGraph(frozenset(range(1, B.n + 1)), frozenset(edges), kind)


def generated_subgraph(G: DynkinGraph, verts) -> DynkinGraph:
    """Subgraph generated by a nonempty vertex subset: keep every edge of G
    with both endpoints inside."""
    verts = frozenset(verts)
    if not verts:
        raise ValueError("generated subgraph needs a nonempty vertex set")
    if not verts <= G.vertices:
        raise ValueError(f"vertices {sorted(verts - G.vertices)} are not in the graph")
    edges = frozenset((i, j) for (i, j) in G.edges if i in verts and j in verts)
    return DynkinGraph(verts, edges, G.kind)


def components(G: DynkinGraph):
    """Walk-equivalence classes, each sorted, listed by least vertex."""
    adjacent = {v: set() for v in G.vertices}
    for i, j in G.edges:
        adjacent[i].add(j)
        adjacent[j].add(i)
    classes, seen = [], set()
    for v in G.vertices:
        if v not in seen:
            comp, stack = {v}, [v]
            while stack:  # depth-first walk from v
                for w in adjacent[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            classes.append(tuple(sorted(comp)))
    return sorted(classes)


def support(word) -> tuple:
    """Distinct generator indices occurring in a nonempty word, sorted."""
    if not word:
        raise ValueError("support of the empty word is undefined")
    return tuple(sorted(set(word)))


def is_connected_monomial(B: BraidingMatrix, word, kind: str) -> bool:
    """True when the support of the word generates a connected subgraph."""
    word_degree(word, B.n)  # the letter check
    sub = generated_subgraph(build_graph(B, kind), support(word))
    return len(components(sub)) == 1


def monomials_connected(B: BraidingMatrix, u, v) -> bool:
    """True when some i in support(u), j in support(v) have q_ij * q_ji != 1."""
    su, sv = support(u), support(v)
    word_degree(su + sv, B.n)  # the letter check
    return any(not B.p_tilde(i, j).is_one() for i in su for j in sv)


def realize_graph(n: int, edges) -> BraidingMatrix:
    """A rational braiding matrix whose pure Dynkin graph is the given graph.

    Diagonal entries are 2; both entries of an edge pair are 2 (product 4),
    both entries of a non-edge pair are 1 (product 1).  Each edge must be
    a tuple or list of two vertices, and the vertex count and the vertices
    must be ints (a bool is not one), as in abstract_graph_from_json.
    """
    if type(n) is not int:
        raise ValueError(f"vertex count must be an int, got {n!r}")
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    edge_set = set()
    for e in edges:
        if not isinstance(e, (tuple, list)) or len(e) != 2:
            raise ValueError(f"edge {e!r} must be a pair (i, j)")
        i, j = e
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"edge ({i!r},{j!r}) must join two int vertices")
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"bad edge ({i},{j}) for vertex set 1..{n}")
        edge_set.add((min(i, j), max(i, j)))
    one = Scalar.one(1)
    two = Scalar.from_rational(1, 2)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j or (min(i, j), max(i, j)) in edge_set:
                row.append(two)
            else:
                row.append(one)
        rows.append(row)
    return BraidingMatrix(rows)


def abstract_graph_from_json(text: str):
    """Parse {"n": <int>, "edges": [[i, j], ...]} with 1-based vertices."""
    data = _read_document(text, "graph", ("n", "edges"))
    if not isinstance(data["edges"], list):
        raise InvalidMatrixError("field 'edges' must be a list of pairs [i, j]")
    edges = []
    for e in data["edges"]:
        if not isinstance(e, list) or len(e) != 2 or any(type(v) is not int for v in e):
            raise InvalidMatrixError(f"edge {e!r} must be a pair [i, j] of integers")
        edges.append((e[0], e[1]))
    return data["n"], edges
