"""Reference scan for lie.max_supports: the engine's former word-by-word
loop, which asks monomial_membership about every word whose support is
not yet covered, whatever the dimension of its degree's Lie span.

It is kept as a test oracle for lie._member_test, whose predicate skips
the pairing of words whose span is empty or full, and answers the later
words of a degree with an empty span without looking the span up.
"""

from nicholslie.freealg import words_of_total_degree
from nicholslie.lie import MEMBER, monomial_membership


def oracle_is_member(B, word, kind, max_terms=None) -> bool:
    return monomial_membership(B, word, kind, max_terms).status == MEMBER


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
