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
from dataclasses import dataclass, field

from .braiding import BraidingMatrix
from .freealg import (
    BRAIDED,
    MINUS,
    FreeElement,
    apply_bracketing,
    catalan,
    enumerate_bracketings,
    format_bracketing,
    minus_bracket,
    multinomial,
    word_degree,
    words_of_total_degree,
)
from .graphs import AUGMENTED, PURE, build_graph, components, is_connected_monomial, support
from .lie import MEMBER, lie_span, max_supports, monomial_membership
from .nichols import GuardrailExceeded, _cap, is_zero_in_nichols
from .scalar import parse_scalar

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
        return {
            "claim": self.claim,
            "instance": self.instance,
            "digest": self.digest,
            "verdict": self.verdict,
            "evidence": self.evidence,
        }


def _digest(B: BraidingMatrix, claim: str, extra: str = "") -> str:
    payload = f"{claim}|{B.to_json()}|{extra}".encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _word_str(word) -> str:
    return " ".join(f"x{i}" for i in word)


def check_theorem_equivalences(B: BraidingMatrix, d_max=None, max_terms=None) -> VerificationReport:
    """Four independent booleans that must agree:

    (a) the pure graph is connected,
    (b) x_n x_{n-1} ... x_1 is a member of the braided Lie algebra,
    (c) x_1 x_2 ... x_n is a member,
    (d) some member monomial of total degree <= d_max has full support.

    A full-support monomial needs degree >= n, so d_max < n is rejected.
    """
    n = B.n
    if d_max is None:
        d_max = n
    if d_max < n:
        raise ValueError(f"d_max must be at least n={n} (a full-support word has length >= n)")
    claim = "thm-equiv"
    digest = _digest(B, claim, f"d_max={d_max}")
    instance = f"n={n} order={B.order} d_max={d_max}"
    try:
        a = len(components(build_graph(B, PURE))) == 1
        spans = {}

        def member(word):
            alpha = word_degree(word, n)
            span = spans.get(alpha)
            if span is None:
                span = spans[alpha] = lie_span(B, alpha, BRAIDED, max_terms)
            rep = monomial_membership(B, word, BRAIDED, max_terms, span=span)
            return rep.status == MEMBER

        descending = tuple(range(n, 0, -1))
        ascending = tuple(range(1, n + 1))
        b = member(descending)
        c = member(ascending)
        d = False
        witness = None
        full = frozenset(range(1, n + 1))
        for length in range(n, d_max + 1):
            for word in words_of_total_degree(n, length):
                if frozenset(word) != full:
                    continue
                if member(word):
                    d = True
                    witness = word
                    break
            if d:
                break
    except GuardrailExceeded as exc:
        return VerificationReport(claim, instance, digest, INCONCLUSIVE, {"guardrail": str(exc)})
    evidence = {
        "graph_connected": a,
        "descending_word_member": b,
        "ascending_word_member": c,
        "full_support_member": d,
        "full_support_witness": _word_str(witness) if witness else None,
    }
    verdict = CONFIRMED if a == b == c == d else COUNTEREXAMPLE
    return VerificationReport(claim, instance, digest, verdict, evidence)


def check_theorem_max_support(B: BraidingMatrix, d_max=None, max_terms=None) -> VerificationReport:
    """Maximal member supports up to d_max must coincide with the pure
    graph's components (a component of size k is witnessed at degree k,
    so the default bound n + 1 leaves headroom)."""
    n = B.n
    if d_max is None:
        d_max = n + 1
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    claim = "thm-maxsupport"
    digest = _digest(B, claim, f"d_max={d_max}")
    instance = f"n={n} order={B.order} d_max={d_max}"
    try:
        comps = components(build_graph(B, PURE))
        sups = max_supports(B, d_max, BRAIDED, max_terms)
    except GuardrailExceeded as exc:
        return VerificationReport(claim, instance, digest, INCONCLUSIVE, {"guardrail": str(exc)})
    evidence = {
        "components": [list(c) for c in comps],
        "max_supports": [list(s) for s in sups],
        "certified_to_degree": d_max,
    }
    verdict = CONFIRMED if comps == sups else COUNTEREXAMPLE
    return VerificationReport(claim, instance, digest, verdict, evidence)


def check_prop_disconnected_pair(B: BraidingMatrix, u_word, v_word, max_terms=None) -> VerificationReport:
    """When q_ij = q_ji = 1 for every i in support(u), j in support(v)
    with i != j, the classical bracket [u, v]- must vanish in B(V)."""
    u_word = tuple(u_word)
    v_word = tuple(v_word)
    if not u_word or not v_word:
        raise ValueError("both monomials must be nonempty")
    claim = "prop-pair"
    extra = f"u={u_word} v={v_word}"
    digest = _digest(B, claim, extra)
    instance = f"n={B.n} order={B.order} u={_word_str(u_word)} v={_word_str(v_word)}"
    for i in support(u_word):
        for j in support(v_word):
            if i == j:
                continue
            if not B.entry(i, j).is_one() or not B.entry(j, i).is_one():
                return VerificationReport(
                    claim,
                    instance,
                    digest,
                    PRECONDITION_NOT_MET,
                    {"pair": [i, j], "q_ij": str(B.entry(i, j)), "q_ji": str(B.entry(j, i))},
                )
    cap = _cap(max_terms)
    bracket = minus_bracket(
        FreeElement.from_word(B.n, B.order, u_word),
        FreeElement.from_word(B.n, B.order, v_word),
    )
    deg = word_degree(u_word + v_word, B.n)
    if multinomial(deg) > cap:
        return VerificationReport(
            claim, instance, digest, INCONCLUSIVE,
            {"guardrail": f"pairing descent at degree {deg} exceeds cap {cap}"},
        )
    if is_zero_in_nichols(B, bracket):
        return VerificationReport(claim, instance, digest, CONFIRMED, {"bracket_vanishes": True})
    return VerificationReport(
        claim, instance, digest, COUNTEREXAMPLE,
        {"bracket": f"[{_word_str(u_word)}, {_word_str(v_word)}]-", "element": str(bracket)},
    )


def check_prop_all_bracketings(B: BraidingMatrix, word, max_terms=None) -> VerificationReport:
    """When the word's augmented-graph support is disconnected or the word
    uses a single generator, every full classical bracketing of it must
    vanish in B(V)."""
    word = tuple(word)
    if len(word) < 2:
        raise ValueError("bracketing check needs a word of length >= 2")
    claim = "prop-brackets"
    digest = _digest(B, claim, f"w={word}")
    instance = f"n={B.n} order={B.order} w={_word_str(word)}"
    sup = support(word)
    if len(sup) > 1 and is_connected_monomial(B, word, AUGMENTED):
        return VerificationReport(
            claim,
            instance,
            digest,
            PRECONDITION_NOT_MET,
            {"reason": "augmented support subgraph is connected", "support": list(sup)},
        )
    cap = _cap(max_terms)
    deg = word_degree(word, B.n)
    n_trees = catalan(len(word) - 1)
    if n_trees * multinomial(deg) > cap:
        return VerificationReport(
            claim, instance, digest, INCONCLUSIVE,
            {"guardrail": f"{n_trees} bracketings x {multinomial(deg)} dual words exceeds cap {cap}"},
        )
    for tree in enumerate_bracketings(len(word)):
        elem = apply_bracketing(B, tree, word, MINUS)
        if not is_zero_in_nichols(B, elem):
            return VerificationReport(
                claim, instance, digest, COUNTEREXAMPLE,
                {"bracketing": format_bracketing(tree, word), "element": str(elem)},
            )
    return VerificationReport(
        claim, instance, digest, CONFIRMED, {"bracketings_checked": n_trees}
    )


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
    rows = [
        [parse_scalar(entries[(i, j)], order) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return BraidingMatrix(rows)


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
