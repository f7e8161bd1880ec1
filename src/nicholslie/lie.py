"""Per-degree spans of the Nichols (braided) Lie algebra inside B(V).

L_alpha is spanned by the images of all full bracketings of the words
of multidegree alpha.  The bracket is bilinear and ker(T(V) -> B(V)) is
a graded two-sided ideal, so L_alpha = span{[b, c] : b in L_beta, c in
L_gamma, beta + gamma = alpha}, which is how it is built.  Monomial
membership is an exact linear solve against that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .braiding import BraidingMatrix
from .freealg import (
    BRAIDED,
    FreeElement,
    _check_bracket_kind,
    _commutator,
    multinomial,
    words_of_total_degree,
)
from .nichols import (
    NicholsVector,
    _RowReducer,
    _check_degree,
    _guard,
    _pairings,
    word_pairing_vector,
)
from .scalar import Scalar

__all__ = [
    "ZERO_IN_NICHOLS",
    "MEMBER",
    "NOT_MEMBER",
    "LieSpan",
    "MembershipReport",
    "lie_span",
    "monomial_membership",
    "max_supports",
]

ZERO_IN_NICHOLS = "ZeroInNichols"
MEMBER = "Member"
NOT_MEMBER = "NotMember"


@dataclass
class LieSpan:
    """A maximal independent set of bracketing images at one multidegree.

    solver is the row reducer that selected the basis; solver.reduce(v)
    is all zero exactly when v lies in the span.
    """

    degree: tuple
    kind: str
    basis: list = field(repr=False)           # NicholsVector, linearly independent
    generators_used: list = field(repr=False)  # (tree, word) provenance per basis entry
    elements: list = field(repr=False, compare=False)  # FreeElement per basis entry
    solver: _RowReducer = field(repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class MembershipReport:
    monomial: tuple
    status: str
    witness: list = None   # scalar per span basis vector when status == MEMBER
    span: LieSpan = None


def lie_span(B: BraidingMatrix, alpha, kind: str, max_terms=None) -> LieSpan:
    """Span of the braided or classical Lie algebra at one multidegree.

    Degree 1 is spanned by its generator.  Above it, each bracket [b, c]
    of basis entries of L_beta and L_gamma, beta + gamma = alpha (beta in
    itertools.product order, then b, then c), is formed from the two
    stored elements, paired, and kept when independent; its provenance
    is the (tree, word) pair ((t_b, t_c), w_b + w_c).

    The guard is checked here, once, and sizes the whole build: it pairs
    sum dim L_beta * dim L_gamma candidates, and dim L <= multinomial, so
    at most sum m(beta) * m(gamma) = (d - 1) * m(alpha) of them (a pair of
    words is one word of alpha cut at one of d - 1 places), each against
    m(alpha) dual words.  That grows with alpha, so it dominates every
    lower degree's, and the recursion (_span) checks nothing.  Spans are
    cached on B per (degree, kind), behind the guard at alpha.
    """
    _check_bracket_kind(kind)
    alpha = _check_degree(B, alpha)
    m = multinomial(alpha)
    c = max(sum(alpha) - 1, 1) * m
    _guard(f"Lie span at degree {alpha} ({c} candidates x {m} words)", c * m, max_terms)
    return _span(B, alpha, kind)


def _span(B: BraidingMatrix, alpha: tuple, kind: str) -> LieSpan:
    """L_alpha from B's span cache, or built from the spans below it."""
    key = (alpha, kind)
    if key in B._lie_span_cache:
        return B._lie_span_cache[key]
    d = sum(alpha)

    def candidates():
        if d == 1:
            letter = alpha.index(1) + 1
            yield (None, (letter,)), FreeElement.generator(B.n, B.order, letter)
        for beta in product(*(range(a + 1) for a in alpha)):
            if 0 < sum(beta) < d:
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                left, right = _span(B, beta, kind), _span(B, gamma, kind)
                if left.elements and right.elements:
                    p = B.chi(gamma, beta) if kind == BRAIDED else Scalar.one(B.order)
                    for (tb, wb), eb in zip(left.generators_used, left.elements):
                        for (tc, wc), ec in zip(right.generators_used, right.elements):
                            yield ((tb, tc), wb + wc), _commutator(eb, ec, p)

    reducer = _RowReducer()
    basis, provenance, elements = [], [], []
    for source, elem in candidates():
        if not elem.terms:
            continue
        values = tuple(_pairings(B, elem, alpha))
        if reducer.insert(values):
            basis.append(NicholsVector(alpha, values))
            provenance.append(source)
            elements.append(elem)
    span = B._lie_span_cache[key] = LieSpan(alpha, kind, basis, provenance, elements, reducer)
    return span


def monomial_membership(B: BraidingMatrix, word, kind: str, max_terms=None) -> MembershipReport:
    """Decide whether a monomial's image lies in the Lie span of its degree.

    A monomial that is zero in B(V) is reported as ZeroInNichols rather
    than Member: its support is representation-dependent, so the
    connectivity statements exclude it.  The span comes from lie_span,
    so a tighter cap is still checked against a cached span.
    """
    _check_bracket_kind(kind)
    word = tuple(word)
    if not word:
        raise ValueError("membership of the empty word is undefined")
    target = word_pairing_vector(B, word, max_terms)
    if target.is_zero():
        return MembershipReport(word, ZERO_IN_NICHOLS)
    span = lie_span(B, target.degree, kind, max_terms)
    if any(span.solver.reduce(target.values)):
        return MembershipReport(word, NOT_MEMBER, span=span)
    # The basis is independent, so the witness is unique: reducing
    # (target | 0) by the rows (basis[k] | e_k) leaves (0 | -witness).
    r = len(span.basis)
    zero, one = Scalar.zero(B.order), Scalar.one(B.order)
    augmented = _RowReducer()
    for k, nv in enumerate(span.basis):
        augmented.insert(nv.values + (zero,) * k + (one,) + (zero,) * (r - 1 - k))
    tail = augmented.reduce(target.values + (zero,) * r)[-r:]
    return MembershipReport(word, MEMBER, witness=[-v for v in tail], span=span)


def max_supports(B: BraidingMatrix, d_max: int, kind: str, max_terms=None):
    """Inclusion-maximal supports of member monomials of total degree <= d_max.

    Words are scanned in increasing total degree, lexicographically
    within a degree.  A word whose support is contained in an
    already-established member support cannot change the maximal set and
    is skipped; each Lie span, and each lower span it is built from, is
    built once per multidegree and kept in B's span cache (see lie_span).
    """
    _check_bracket_kind(kind)
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    member_supports = []
    for d in range(1, d_max + 1):
        for word in words_of_total_degree(B.n, d):
            s = frozenset(word)
            if any(s <= t for t in member_supports):
                continue
            if monomial_membership(B, word, kind, max_terms).status == MEMBER:
                member_supports.append(s)
    maximal = [
        s for s in member_supports
        if not any(s < t for t in member_supports)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)
