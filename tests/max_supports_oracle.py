"""Reference scans for lie.max_supports and verify's thm-equiv: the
engine's former word-by-word loops, which ask monomial_membership about
every word whose support is not yet covered, in increasing length and
lexicographically within a length, whatever the dimension of its
degree's Lie span, and solve for a witness each time.

They are kept as oracles for the degree scans, which walk multidegrees
and pair a word only where its span is neither empty nor full.  Neither
side pairs a word of an empty span: nothing is a member of one, and the
pairing-vector guard of monomial_membership, which the span guard does
not cover there, would otherwise refuse a degree the scans answer.
"""

from nicholslie.freealg import word_degree, words_of_total_degree
from nicholslie.graphs import PURE, build_graph, components
from nicholslie.lie import MEMBER, lie_span, monomial_membership
from nicholslie.nichols import GuardrailExceeded


def oracle_is_member(B, word, kind, max_terms=None) -> bool:
    try:
        empty = not lie_span(B, word_degree(word, B.n), kind, max_terms).basis
    except GuardrailExceeded:  # monomial_membership answers, or raises the same
        empty = False
    return not empty and monomial_membership(B, word, kind, max_terms).status == MEMBER


def oracle_max_supports(B, d_max, kind, max_terms=None):
    member_supports = []
    for d in range(1, d_max + 1):
        for word in words_of_total_degree(B.n, d):
            s = frozenset(word)
            if any(s <= t for t in member_supports):
                continue
            if oracle_is_member(B, word, kind, max_terms):
                member_supports.append(s)
    maximal = [s for s in member_supports if not any(s < t for t in member_supports)]
    return sorted(tuple(sorted(s)) for s in maximal)


def oracle_equivalence_evidence(B, d_max, max_terms=None) -> dict:
    """The evidence of check_theorem_equivalences(B, d_max, max_terms),
    or {"guardrail": text} where a guard refuses."""
    n = B.n

    def is_member(word):
        return oracle_is_member(B, word, "braided", max_terms)

    try:
        a = len(components(build_graph(B, PURE))) == 1
        b = is_member(tuple(range(n, 0, -1)))
        c = is_member(tuple(range(1, n + 1)))
        witness = next(
            (word for length in range(n, d_max + 1) for word in words_of_total_degree(n, length)
             if len(set(word)) == n and is_member(word)),
            None,
        )
    except GuardrailExceeded as exc:
        return {"guardrail": str(exc)}
    return {
        "graph_connected": a,
        "descending_word_member": b,
        "ascending_word_member": c,
        "full_support_member": witness is not None,
        "full_support_witness": " ".join(f"x{i}" for i in witness) if witness else None,
    }
