"""Per-degree spans of the Nichols (braided) Lie algebra inside B(V).

The braided Lie algebra generated by the x_i is spanned, in each
multidegree, by the images of all full bracketings of all words of that
multidegree (brackets are bilinear, and any Lie subalgebra containing
the generators contains every such bracketing).  Monomial membership is
an exact linear solve against that span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .braiding import BraidingMatrix
from .freealg import (
    FreeElement,
    _check_bracket_kind,
    apply_bracketing,
    enumerate_bracketings,
    multinomial,
    word_degree,
    words_of_multidegree,
    words_of_total_degree,
)
from .nichols import (
    _RowReducer,
    _check_degree,
    _guard,
    basis_of_degree,
    pairing_vector,
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

    Enumerates (word, tree) pairs, collapses bracketings that already
    coincide in the free algebra, pairs each survivor, and keeps a
    maximal linearly independent subset (deterministic greedy order:
    words lexicographically, trees in enumeration order).  Degree-1
    components are the generators themselves.
    """
    _check_bracket_kind(kind)
    alpha = _check_degree(B, alpha)
    d = sum(alpha)
    if d < 1:
        raise ValueError("Lie span needs total degree >= 1")
    reducer = _RowReducer()
    if d == 1:
        i = alpha.index(1) + 1
        nv = pairing_vector(B, FreeElement.generator(B.n, B.order, i), max_terms)
        reducer.insert(nv.values)
        return LieSpan(alpha, kind, [nv], [(None, (i,))], reducer)
    trees = enumerate_bracketings(d)
    m = multinomial(alpha)
    cap = _guard(
        f"Lie span at degree {alpha} ({len(trees)} bracketings x {m} words)",
        len(trees) * m * m,
        max_terms,
    )
    # ambient dimension bounds the span; lets the scan stop early
    _, ambient_rank = basis_of_degree(B, alpha, cap)
    basis = []
    provenance = []
    seen = set()
    for word in words_of_multidegree(alpha):
        if len(basis) == ambient_rank:
            break
        for tree in trees:
            elem = apply_bracketing(B, tree, word, kind)
            if not elem.terms:
                continue
            # scalar multiples of an already-seen bracketing add nothing:
            # normalize the dedup key by the leading coefficient
            lead = elem.terms[min(elem.terms)]
            key = (elem if lead.is_one() else elem.scale(lead.inv())).canonical_key()
            if key in seen:
                continue
            seen.add(key)
            nv = pairing_vector(B, elem, cap)
            if reducer.insert(nv.values):
                basis.append(nv)
                provenance.append((tree, word))
                if len(basis) == ambient_rank:
                    break
    return LieSpan(alpha, kind, basis, provenance, reducer)


def monomial_membership(
    B: BraidingMatrix, word, kind: str, max_terms=None, span: LieSpan = None
) -> MembershipReport:
    """Decide whether a monomial's image lies in the Lie span of its degree.

    A monomial that is zero in B(V) is reported as ZeroInNichols rather
    than Member: its support is representation-dependent, so the
    connectivity statements exclude it.
    """
    _check_bracket_kind(kind)
    word = tuple(word)
    if not word:
        raise ValueError("membership of the empty word is undefined")
    target = word_pairing_vector(B, word, max_terms)
    if target.is_zero():
        return MembershipReport(word, ZERO_IN_NICHOLS)
    if span is None:
        span = lie_span(B, target.degree, kind, max_terms)
    elif span.degree != target.degree or span.kind != kind:
        raise ValueError("supplied span does not match the word's degree and kind")
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
    is skipped; Lie spans are cached per multidegree.
    """
    _check_bracket_kind(kind)
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    member_supports = []
    spans = {}
    for d in range(1, d_max + 1):
        for word in words_of_total_degree(B.n, d):
            s = frozenset(word)
            if any(s <= t for t in member_supports):
                continue
            alpha = word_degree(word, B.n)
            span = spans.get(alpha)
            if span is None:
                span = spans[alpha] = lie_span(B, alpha, kind, max_terms)
            report = monomial_membership(B, word, kind, max_terms, span=span)
            if report.status == MEMBER:
                member_supports.append(s)
    maximal = [
        s for s in member_supports
        if not any(s < t for t in member_supports)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)
