"""The four benchmark workloads: seeded inputs, the timed op, the check.

Each workload turns a seed into a JSON-able record of its inputs
(`generate`), materializes ops from that record (`build`), runs one op
(`run`), and checks an op's output against an independent answer
(`check`, which returns None when the output is right).

Per-op costs differ by two orders of magnitude between inputs, so ops
come in rounds of fixed composition: the same sequence of matrix or
graph shapes in every run, each drawn once from the workload's
distribution by a fixed generator.  The seed relabels the generators
of every matrix (a simultaneous permutation of rows and columns, which
keeps ranks and roughly keeps costs) and draws the words; throughput
and latency quantiles then compare across seeds.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import os
import random
import re

# -- dims-z24 -----------------------------------------------------------------

Z24_VALUES = ["1", "-1", "2", "z^8", "z^3"]  # zeta_3 = z^8, zeta_8 = z^3 in Q(zeta_24)


def _relabel(rows, rng):
    """Simultaneous row/column permutation of a matrix of literals."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[i][j] for j in perm] for i in perm]


def _degrees(n):
    return [a for a in itertools.product(range(5), repeat=n) if 1 <= sum(a) <= 4]


class DimsZ24:
    """basis_of_degree then symmetrizer_rank_oracle at every 1 <= |alpha| <= 4.

    Matrices alternate n = 2 and n = 3.  Entries are a shuffled balanced
    draw from the five values (each value at most once more than any
    other), because the entry mix sets a matrix's cost.  All degrees of
    one matrix run back to back on one matrix object and its caches.
    """

    name = "dims-z24"
    round_ops = 14 + 34  # one matrix of each size
    pool_matrices = 128
    trace_ops = 2 * (14 + 34)

    def generate(self, rng):
        base = random.Random(self.name)
        matrices, ops = [], []
        for k in range(self.pool_matrices):
            n = 2 if k % 2 == 0 else 3
            draw = Z24_VALUES * -(-n * n // len(Z24_VALUES))
            base.shuffle(draw)
            rows = _relabel([draw[i * n:(i + 1) * n] for i in range(n)], rng)
            matrices.append(json.dumps({"n": n, "cyclotomic_order": 24, "q": rows}))
            ops.extend({"matrix": k, "alpha": list(a)} for a in _degrees(n))
        return {"matrices": matrices, "ops": ops}

    def build(self, lib, inputs, ops, out_dir):
        cache = {}
        built = []
        for op in ops:
            k = op["matrix"]
            B = cache.get(k)
            if B is None:
                B = cache[k] = lib.braiding.BraidingMatrix.from_json(inputs["matrices"][k])
            built.append((B, tuple(op["alpha"])))
        return built

    def run(self, lib, op):
        B, alpha = op
        _, rank = lib.nichols.basis_of_degree(B, alpha)
        return rank, lib.nichols.symmetrizer_rank_oracle(B, alpha)

    def check(self, lib, inputs, op, output):
        rank, oracle = output
        if rank != oracle:
            return f"basis_of_degree rank {rank} != symmetrizer rank {oracle}"
        return None

    def replay(self, inputs, op):
        alpha = tuple(op["alpha"])
        return (f"B = BraidingMatrix.from_json({inputs['matrices'][op['matrix']]!r}); "
                f"basis_of_degree(B, {alpha}); symmetrizer_rank_oracle(B, {alpha})")


# -- maxsupport-q -------------------------------------------------------------

# One graph per isomorphism class of simple graphs on 3 and on 4 vertices.
GRAPH_CLASSES = [
    (3, []), (3, [(1, 2)]), (3, [(1, 2), (2, 3)]), (3, [(1, 2), (1, 3), (2, 3)]),
    (4, []), (4, [(1, 2)]), (4, [(1, 2), (2, 3)]), (4, [(1, 2), (3, 4)]),
    (4, [(1, 2), (1, 3), (2, 3)]), (4, [(1, 2), (1, 3), (1, 4)]),
    (4, [(1, 2), (2, 3), (3, 4)]), (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    (4, [(1, 2), (1, 3), (2, 3), (3, 4)]), (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]),
    (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
]


class MaxSupportQ:
    """max_supports(B, 4, "braided") on realize_graph of a random simple graph.

    Each round visits every isomorphism class on 3 and 4 vertices once,
    under a seeded relabelling: disconnected graphs cost several times
    more than connected ones, so a fixed class mix keeps runs comparable.
    """

    name = "maxsupport-q"
    round_ops = len(GRAPH_CLASSES)
    pool_rounds = 10
    trace_ops = len(GRAPH_CLASSES)

    def generate(self, rng):
        ops = []
        for _ in range(self.pool_rounds):
            for n, edges in GRAPH_CLASSES:
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                relabelled = sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges)
                ops.append({"n": n, "edges": [list(e) for e in relabelled]})
        return {"ops": ops}

    def build(self, lib, inputs, ops, out_dir):
        return [lib.graphs.realize_graph(op["n"], [tuple(e) for e in op["edges"]]) for op in ops]

    def run(self, lib, B):
        return lib.lie.max_supports(B, 4, "braided")

    def check(self, lib, inputs, op, output):
        B = lib.graphs.realize_graph(op["n"], [tuple(e) for e in op["edges"]])
        expected = lib.graphs.components(lib.graphs.build_graph(B, "pure"))
        if output != expected:
            return f"max_supports {output} != pure components {expected}"
        return None

    def replay(self, inputs, op):
        return f"max_supports(realize_graph({op['n']}, {op['edges']}), 4, 'braided')"


# -- zeroness-mixed ------------------------------------------------------------

# Augmented graph split {1,2} | {3} or discrete; orders 1, 3 and 8.
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
WORD_LENGTHS = (2, 3, 4, 5)


class ZeronessMixed:
    """check_prop_all_bracketings(B, w) plus check_prop_disconnected_pair at
    every cut of w.  Each round pairs every listed matrix with one seeded
    word of each length 2..5."""

    name = "zeroness-mixed"
    round_ops = len(ZERONESS_MATRICES) * len(WORD_LENGTHS)
    pool_rounds = 64
    trace_ops = 2 * len(ZERONESS_MATRICES) * len(WORD_LENGTHS)

    def generate(self, rng):
        matrices = [
            json.dumps({"n": len(rows), "cyclotomic_order": order, "q": rows})
            for rows, order in ZERONESS_MATRICES
        ]
        ops = []
        for _ in range(self.pool_rounds):
            for k, (rows, _) in enumerate(ZERONESS_MATRICES):
                for length in WORD_LENGTHS:
                    ops.append({"matrix": k, "word": [rng.randint(1, len(rows)) for _ in range(length)]})
        return {"matrices": matrices, "ops": ops}

    def build(self, lib, inputs, ops, out_dir):
        Bs = [lib.braiding.BraidingMatrix.from_json(text) for text in inputs["matrices"]]
        return [(Bs[op["matrix"]], tuple(op["word"])) for op in ops]

    def run(self, lib, op):
        B, w = op
        verdicts = [lib.verify.check_prop_all_bracketings(B, w).verdict]
        for cut in range(1, len(w)):
            verdicts.append(lib.verify.check_prop_disconnected_pair(B, w[:cut], w[cut:]).verdict)
        return verdicts

    def check(self, lib, inputs, op, output):
        graphs = lib.graphs
        B = lib.braiding.BraidingMatrix.from_json(inputs["matrices"][op["matrix"]])
        G = graphs.build_graph(B, "augmented")
        w = tuple(op["word"])
        sup = graphs.support(w)
        holds = [len(sup) == 1 or len(graphs.components(graphs.generated_subgraph(G, sup))) > 1]
        for cut in range(1, len(w)):
            su, sv = graphs.support(w[:cut]), graphs.support(w[cut:])
            holds.append(not any(G.has_edge(i, j) for i in su for j in sv if i != j))
        expected = ["Confirmed" if h else "PreconditionNotMet" for h in holds]
        if output != expected:
            return f"verdicts {output} != expected {expected} (prop-brackets, then each cut)"
        return None

    def replay(self, inputs, op):
        return (f"B = BraidingMatrix.from_json({inputs['matrices'][op['matrix']]!r}); "
                f"check_prop_all_bracketings(B, {tuple(op['word'])}) and "
                f"check_prop_disconnected_pair(B, w[:c], w[c:]) for every cut c")


# -- cli-cold --------------------------------------------------------------------

GRID_OFF = ["1", "-1", "2", "z"]  # z = zeta_3 at order 3
GRID_DIAG = ["-1", "2", "z"]
# Each grid value as (sign, power of 2, power of zeta_3): products are
# decided here without the library's field arithmetic.
_GRID_MONOMIAL = {"1": (1, 0, 0), "-1": (-1, 0, 0), "2": (1, 1, 0), "z": (1, 0, 1)}
DIM_DEGREES = {2: [(1, 1), (2, 1), (1, 2), (2, 2)], 3: [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]}
_VERDICT_LINE = re.compile(r"^(\S+) [0-9a-f]{12} (\S+)$")
_DOT_EDGE = re.compile(r'^  v(\d+) -- v(\d+) \[label="[^"]+"\];$')


def _grid_edges(q, kind):
    n = len(q)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if kind == "augmented":
                present = q[i][j] != "1" or q[j][i] != "1"
            else:
                a, b = _GRID_MONOMIAL[q[i][j]], _GRID_MONOMIAL[q[j][i]]
                present = (a[0] * b[0], a[1] + b[1], (a[2] + b[2]) % 3) != (1, 0, 0)
            if present:
                edges.append((i + 1, j + 1))
    return edges


def _grid_components(n, edges):
    seen, comps = set(), []
    for v in range(1, n + 1):
        if v in seen:
            continue
        comp, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in comp:
                        comp.add(y)
                        frontier.append(y)
        seen |= comp
        comps.append(sorted(comp))
    return comps


# Files cycle through these shapes so that disconnected graphs (NotMember,
# non-trivial prop-brackets words) are as common in every run: a pure graph
# that is connected, one that is split while the augmented graph is
# connected, and an augmented graph that is split.
GRID_SHAPES = ("connected", "pure-split", "connected", "split")


def _grid_matrix(rng, n, shape):
    """A random grid matrix of the given shape, by rejection."""
    while True:
        q = [[rng.choice(GRID_DIAG) if i == j else rng.choice(GRID_OFF) for j in range(n)]
             for i in range(n)]
        if len(_grid_components(n, _grid_edges(q, "pure"))) == 1:
            got = "connected"
        elif len(_grid_components(n, _grid_edges(q, "augmented"))) == 1:
            got = "pure-split"
        else:
            got = "split"
        if got == shape:
            return q


@functools.lru_cache(maxsize=None)
def _oracle_rank(lib, doc, alpha):
    return lib.nichols.symmetrizer_rank_oracle(lib.braiding.BraidingMatrix.from_json(doc), alpha)


class CliCold:
    """In-process cli.main over a fixed round of eight commands, each on an
    order-3 grid matrix file (n alternating 2 and 3 by round, files taken
    in turn, half of them with a disconnected pure graph).  Every call
    re-reads its file, so per-matrix caches start cold."""

    name = "cli-cold"
    round_ops = 2 * 8  # the eight commands at n = 2 and at n = 3
    pool_files = 32
    pool_rounds = 600
    trace_ops = 8 * 24

    @functools.cached_property
    def base_matrices(self):
        """The fixed file shapes, drawn once per process."""
        base = random.Random(self.name)
        return [_grid_matrix(base, 2 + k % 2, GRID_SHAPES[(k // 2) % len(GRID_SHAPES)])
                for k in range(self.pool_files)]

    def generate(self, rng):
        files = [{"path": f"cli-cold-{k}.json", "n": len(q), "q": _relabel(q, rng)}
                 for k, q in enumerate(self.base_matrices)]
        ops = []
        turn = 0
        for r in range(self.pool_rounds):
            n = 2 + r % 2
            kind = "pure" if (r // 2) % 2 == 0 else "augmented"
            alpha = DIM_DEGREES[n][(r // 2) % len(DIM_DEGREES[n])]
            down = " ".join(f"x{i}" for i in range(n, 0, -1))
            up = " ".join(f"x{i}" for i in range(1, n + 1))
            commands = [
                ["graph", "--kind", kind, "--dot", "--annotate"],
                ["components", "--kind", kind],
                ["dim", "--degree", ",".join(map(str, alpha))],
                ["ismember", "--lie", "braided", "--monomial", down],
                ["ismember", "--lie", "braided", "--monomial", up],
                ["verify", "--claim", "thm-equiv"],
                ["verify", "--claim", "thm-maxsupport", "--max-degree", str(n)],
                None,
            ]
            for command in commands:
                k = 2 * (turn % (self.pool_files // 2)) + n - 2
                turn += 1
                if command is None:
                    word = self._bracket_word(files[k], rng)
                    command = ["verify", "--claim", "prop-brackets", "--monomial", word]
                ops.append({"file": k, "argv": command[:1] + ["--input", files[k]["path"]] + command[1:]})
        return {"files": files, "ops": ops}

    @staticmethod
    def _bracket_word(entry, rng):
        """A word whose prop-brackets precondition holds: letters from two
        augmented components, or one generator repeated."""
        comps = _grid_components(entry["n"], _grid_edges(entry["q"], "augmented"))
        if len(comps) > 1:
            a, b = rng.sample(comps, 2)
            word = [rng.choice(a), rng.choice(b), rng.choice(a)]
        else:
            word = [rng.randint(1, entry["n"])] * rng.randint(2, 3)
        return " ".join(f"x{i}" for i in word)

    def build(self, lib, inputs, ops, out_dir):
        for entry in inputs["files"]:
            doc = {"n": entry["n"], "cyclotomic_order": 3, "q": entry["q"]}
            with open(os.path.join(out_dir, entry["path"]), "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc))
        built = []
        for op in ops:
            argv = list(op["argv"])
            argv[argv.index("--input") + 1] = os.path.join(out_dir, inputs["files"][op["file"]]["path"])
            built.append(argv)
        return built

    def run(self, lib, argv):
        buf = io.StringIO()
        return lib.cli.main(argv, out=buf), buf.getvalue()

    def check(self, lib, inputs, op, output):
        code, text = output
        if code != 0:
            return f"exit status {code}"
        entry = inputs["files"][op["file"]]
        n, q, argv = entry["n"], entry["q"], op["argv"]
        lines = text.splitlines()
        command = argv[0]
        if command in ("graph", "components"):
            kind = argv[argv.index("--kind") + 1]
            edges = _grid_edges(q, kind)
            if command == "components":
                expected = [" ".join(map(str, c)) for c in _grid_components(n, edges)]
                return None if lines == expected else f"components {lines} != {expected}"
            head = ["graph dynkin {"] + [f"  v{v};" for v in range(1, n + 1)]
            got = [tuple(map(int, m.groups())) for m in map(_DOT_EDGE.match, lines[n + 1:-1]) if m]
            if lines[:n + 1] != head or lines[-1:] != ["}"] or got != edges or len(lines) != n + 2 + len(got):
                return f"DOT output does not show edges {edges}"
            return None
        if command == "dim":
            alpha = tuple(int(a) for a in argv[argv.index("--degree") + 1].split(","))
            expected = str(_oracle_rank(lib, json.dumps({"n": n, "cyclotomic_order": 3, "q": q}), alpha))
            return None if lines == [expected] else f"dim {lines} != symmetrizer rank {expected}"
        if command == "ismember":
            connected = len(_grid_components(n, _grid_edges(q, "pure"))) == 1
            if connected:
                witnesses = lines[1:]
                ok = lines[:1] == ["Member"] and witnesses and all(s.startswith("witness: ") for s in witnesses)
            else:
                ok = lines == ["NotMember"]
            return None if ok else f"ismember printed {lines[:1]}, pure graph connected: {connected}"
        claim = argv[argv.index("--claim") + 1]
        m = _VERDICT_LINE.match(lines[0]) if len(lines) == 1 else None
        if m is None or m.groups() != (claim, "Confirmed"):
            return f"verify printed {lines}, expected one '{claim} <digest> Confirmed' line"
        return None

    def replay(self, inputs, op):
        entry = inputs["files"][op["file"]]
        doc = json.dumps({"n": entry["n"], "cyclotomic_order": 3, "q": entry["q"]})
        return f"echo '{doc}' > {entry['path']}; nicholslie {' '.join(repr(a) for a in op['argv'])}"


WORKLOADS = {w.name: w for w in (DimsZ24(), MaxSupportQ(), ZeronessMixed(), CliCold())}
