"""Machine checks of the graph/Lie-algebra correspondences.

Each checker takes a braiding matrix (plus claim-specific arguments),
recomputes both sides of one claim independently, and reports Confirmed,
Counterexample (with re-runnable evidence), Inconclusive when a size
guardrail was hit, or PreconditionNotMet when the claim's hypothesis
fails for the instance.  Grid generators for exhaustive and sampled
matrix batteries live here too.

The claims:

* thm-equiv: connectivity of the pure Dynkin graph is equivalent to
  membership of x_n...x_1 (and of x_1...x_n) in the braided Lie algebra,
  and to the existence of a member monomial with full support.
* thm-maxsupport: the maximal supports of member monomials are exactly
  the connected components of the pure graph (certified up to a degree
  bound).
* prop-pair: if every cross pair of generators between two monomials has
  q_ij = q_ji = 1, their classical bracket is zero in B(V).
* prop-brackets: if a word's augmented-graph support is disconnected, or
  the word uses a single generator, every full classical bracketing of
  it vanishes in B(V).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field

from .braiding import BraidingMatrix
from .freealg import (
    BRAIDED,
    MINUS,
    FreeElement,
    _bracketing_terms,
    _commutator,
    catalan,
    enumerate_bracketings,
    format_bracketing,
    multinomial,
    word_degree,
)
from .graphs import AUGMENTED, PURE, build_graph, components, is_connected_monomial, support
from .lie import _check_d_max, _full_support_witness, _is_member, max_supports
from .nichols import GuardrailExceeded, _cap, _check_degree, _guard, _vanishes, _word_charge

__all__ = [
    "CONFIRMED",
    "COUNTEREXAMPLE",
    "INCONCLUSIVE",
    "PRECONDITION_NOT_MET",
    "VerificationReport",
    "check_theorem_equivalences",
    "check_theorem_max_support",
    "check_prop_disconnected_pair",
    "check_prop_all_bracketings",
    "grid_matrices",
    "grid_size",
    "grid_matrix_at",
    "sample_grid_matrices",
]

CONFIRMED = "Confirmed"
COUNTEREXAMPLE = "Counterexample"
INCONCLUSIVE = "Inconclusive"
PRECONDITION_NOT_MET = "PreconditionNotMet"


@dataclass
class VerificationReport:
    claim: str
    instance: str
    digest: str
    verdict: str
    evidence: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"{self.claim} {self.digest} {self.verdict}"

    def to_dict(self) -> dict:
        return asdict(self)


def _word_str(word) -> str:
    return " ".join(f"x{i}" for i in word)


def _report(B: BraidingMatrix, claim: str, extra: str, instance: str, check) -> VerificationReport:
    """Run check() for its (verdict, evidence) and file the report.

    A size guardrail hit anywhere inside the check makes the claim
    Inconclusive; the digest hashes the claim, the matrix and the
    claim-specific arguments in extra.
    """
    digest = hashlib.sha256(f"{claim}|{B.to_json()}|{extra}".encode()).hexdigest()[:12]
    try:
        verdict, evidence = check()
    except GuardrailExceeded as exc:
        verdict, evidence = INCONCLUSIVE, {"guardrail": str(exc)}
    return VerificationReport(claim, instance, digest, verdict, evidence)


def check_theorem_equivalences(B: BraidingMatrix, d_max=None, max_terms=None) -> VerificationReport:
    """Four independent booleans that must agree:

    (a) the pure graph is connected,
    (b) x_n x_{n-1} ... x_1 is a member of the braided Lie algebra,
    (c) x_1 x_2 ... x_n is a member,
    (d) some member monomial of total degree <= d_max has full support.

    (d) reads the ascending word when it is a member, else the full-support
    walk that lie.max_supports runs first (lie._full_support_witness).  A
    full-support monomial needs degree >= n, so d_max < n is rejected.
    """
    n = B.n
    if d_max is None:
        d_max = n
    _check_d_max(d_max, n, f"n={n} (a full-support word has length >= n)")

    def check():
        a = len(components(build_graph(B, PURE))) == 1
        cap = _cap(max_terms)
        b = _is_member(B, tuple(range(n, 0, -1)), BRAIDED, cap)
        c = _is_member(B, tuple(range(1, n + 1)), BRAIDED, cap)
        # the ascending word is the least word of full support
        witness = tuple(range(1, n + 1)) if c else _full_support_witness(B, d_max, BRAIDED, cap)
        d = witness is not None
        evidence = {
            "graph_connected": a,
            "descending_word_member": b,
            "ascending_word_member": c,
            "full_support_member": d,
            "full_support_witness": _word_str(witness) if witness else None,
        }
        return (CONFIRMED if a == b == c == d else COUNTEREXAMPLE), evidence

    return _report(B, "thm-equiv", f"d_max={d_max}", f"n={n} order={B.order} d_max={d_max}", check)


def check_theorem_max_support(B: BraidingMatrix, d_max=None, max_terms=None) -> VerificationReport:
    """Maximal member supports up to d_max must coincide with the pure
    graph's components (a component of size k is witnessed at degree k,
    so the default bound n + 1 leaves headroom; below the largest k the
    check could only fail, so such a d_max is rejected)."""
    n = B.n
    if d_max is None:
        d_max = n + 1
    comps = components(build_graph(B, PURE))
    k = max(len(c) for c in comps)
    _check_d_max(d_max, k, f"k={k}, the size of the largest pure component "
                 "(a word with k distinct generators has length >= k)")

    def check():
        sups = max_supports(B, d_max, BRAIDED, max_terms)
        evidence = {
            "components": [list(c) for c in comps],
            "max_supports": [list(s) for s in sups],
            "certified_to_degree": d_max,
        }
        return (CONFIRMED if comps == sups else COUNTEREXAMPLE), evidence

    return _report(B, "thm-maxsupport", f"d_max={d_max}", f"n={n} order={B.order} d_max={d_max}",
                   check)


def check_prop_disconnected_pair(B: BraidingMatrix, u_word, v_word, max_terms=None) -> VerificationReport:
    """When q_ij = q_ji = 1 for every i in support(u), j in support(v)
    with i != j, the classical bracket [u, v]- must vanish in B(V)."""
    u_word = tuple(u_word)
    v_word = tuple(v_word)
    if not u_word or not v_word:
        raise ValueError("both monomials must be nonempty")
    deg = word_degree(u_word + v_word, B.n)

    def check():
        for i in support(u_word):
            for j in support(v_word):
                if i != j and not (B.entry(i, j).is_one() and B.entry(j, i).is_one()):
                    return PRECONDITION_NOT_MET, {
                        "pair": [i, j], "q_ij": str(B.entry(i, j)), "q_ji": str(B.entry(j, i)),
                    }
        _check_degree(B, deg)
        _guard(multinomial(deg), max_terms, "pairing descent at degree {}", deg)
        bracket = _commutator({u_word: 1}, {v_word: 1}, 1)  # [u, v]- on ints
        if _vanishes(B, bracket, deg, _word_charge(_cap(max_terms), deg)):
            return CONFIRMED, {"bracket_vanishes": True}
        return COUNTEREXAMPLE, {
            "bracket": f"[{_word_str(u_word)}, {_word_str(v_word)}]-",
            "element": str(FreeElement(B.n, B.order, bracket)),
        }

    instance = f"n={B.n} order={B.order} u={_word_str(u_word)} v={_word_str(v_word)}"
    return _report(B, "prop-pair", f"u={u_word} v={v_word}", instance, check)


def check_prop_all_bracketings(B: BraidingMatrix, word, max_terms=None) -> VerificationReport:
    """When the word's augmented-graph support is disconnected or the word
    uses a single generator, every full classical bracketing of it must
    vanish in B(V)."""
    word = tuple(word)
    if len(word) < 2:
        raise ValueError("bracketing check needs a word of length >= 2")
    deg = word_degree(word, B.n)

    def check():
        sup = support(word)
        if len(sup) > 1 and is_connected_monomial(B, word, AUGMENTED):
            return PRECONDITION_NOT_MET, {
                "reason": "augmented support subgraph is connected", "support": list(sup),
            }
        _check_degree(B, deg)
        n_trees = catalan(len(word) - 1)
        m = multinomial(deg)
        _guard(n_trees * m, max_terms, "bracketing descent at degree {} ({} bracketings x {} dual words)",
               deg, n_trees, m)
        cap = _cap(max_terms)
        for tree in enumerate_bracketings(len(word)):
            terms = _bracketing_terms(B, tree, word, MINUS)  # word -> int
            if not _vanishes(B, terms, deg, _word_charge(cap, deg)):
                return COUNTEREXAMPLE, {
                    "bracketing": format_bracketing(tree, word),
                    "element": str(FreeElement(B.n, B.order, terms)),
                }
        return CONFIRMED, {"bracketings_checked": n_trees}

    return _report(B, "prop-brackets", f"w={word}", f"n={B.n} order={B.order} w={_word_str(word)}",
                   check)


# -- matrix batteries ---------------------------------------------------
#
# Assignments of entry values are indexed in mixed radix: off-diagonal
# positions vary fastest in row-major order, then diagonal positions.
# That makes exhaustive grids and deterministic samples share one
# decoder.


def _grid_positions(n: int):
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    diag = [(i, i) for i in range(1, n + 1)]
    return off, diag


def grid_size(n: int, off_diag_values, diag_values) -> int:
    off, diag = _grid_positions(n)
    return len(off_diag_values) ** len(off) * len(diag_values) ** len(diag)


def grid_matrix_at(index: int, n: int, off_diag_values, diag_values, order: int) -> BraidingMatrix:
    """Decode one grid assignment; values are scalar literals."""
    off, diag = _grid_positions(n)
    entries = {}
    for pos in off:
        index, r = divmod(index, len(off_diag_values))
        entries[pos] = off_diag_values[r]
    for pos in diag:
        index, r = divmod(index, len(diag_values))
        entries[pos] = diag_values[r]
    if index:
        raise IndexError("grid index out of range")
    rows = [[entries[(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)]
    return BraidingMatrix.from_strings(rows, order)


def grid_matrices(n: int, off_diag_values, diag_values, order: int):
    """Every matrix of the grid, in index order."""
    for index in range(grid_size(n, off_diag_values, diag_values)):
        yield grid_matrix_at(index, n, off_diag_values, diag_values, order)


def sample_grid_matrices(n: int, off_diag_values, diag_values, order: int, count: int, seed: int):
    """A deterministic sample of `count` distinct grid matrices."""
    total = grid_size(n, off_diag_values, diag_values)
    if count > total:
        raise ValueError(f"cannot sample {count} of {total} grid points")
    rng = random.Random(seed)
    for index in sorted(rng.sample(range(total), count)):
        yield grid_matrix_at(index, n, off_diag_values, diag_values, order)
