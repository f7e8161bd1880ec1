"""Per-degree spans of the Nichols (braided) Lie algebra inside B(V).

L_alpha is spanned by the images of all full bracketings of the words
of multidegree alpha.  The bracket is bilinear and ker(T(V) -> B(V)) is
a graded two-sided ideal, so L_alpha = span{[b, c] : b in L_beta, c in
L_gamma, beta + gamma = alpha}, which is how it is built, each [b, c]
paired from the stored pairing vectors of b and c by the quantum
shuffle of nichols; a degree of the same shape as an earlier one (the
same exponents and principal submatrix on its support) takes that span,
relabelled.  Monomial membership is an exact linear solve against that
span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .braiding import BraidingMatrix
from .freealg import (
    BRAIDED,
    MINUS,
    _check_choice,
    multinomial,
    word_degree,
    words_of_total_degree,
)
from .nichols import (
    GuardrailExceeded,
    NicholsVector,
    _RowReducer,
    _ShuffleTables,
    _check_degree,
    _guard,
    _integer_vector,
    _pairings,
    _scalars,
    _shuffle_into,
)
from .scalar import Scalar, _ring_units

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

    The basis vectors are all the spans above read: they shuffle them into
    the pairing vectors of their candidates.  solver is the row reducer
    that selected the basis; solver.reduce(v) is the exact residue of v,
    all zero exactly when v lies in the span, and solver.contains(v) is
    that test, building no scalar.  A span relabelled from an earlier
    degree of the same shape (see _span) shares that degree's solver, so a
    solver is read-only once its span is built: reduce it, never insert
    into it.
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

    Degree 1 is spanned by its generator.  Above it, each bracket [b, c]
    of basis entries of L_beta and L_gamma, beta + gamma = alpha (beta in
    itertools.product order, then b, then c), is paired by shuffling the
    stored vectors of b and c, and kept when nonzero and independent; its
    provenance is the (tree, word) pair ((t_b, t_c), w_b + w_c).  A span
    is reused, and work is skipped, only where no basis vector, provenance
    entry or pivot changes (see _span).

    The guard is checked here, once, and sizes the whole build: it pairs
    sum dim L_beta * dim L_gamma candidates, and dim L <= multinomial, so
    at most sum m(beta) * m(gamma) = (d - 1) * m(alpha) of them (a pair of
    words is one word of alpha cut at one of d - 1 places), each against
    m(alpha) dual words; the shuffle tables hold at most as many entries.
    That grows with alpha, so it dominates every lower degree's, and the
    recursion (_span) checks nothing.  Spans are cached on B per (degree,
    kind), behind the guard at alpha; a cache hit still checks the kind,
    the degree and the cap, and formats no refusal text unless it refuses.
    """
    _check_choice(kind, (BRAIDED, MINUS), "bracket kind")
    alpha = _check_degree(B, alpha)
    m = multinomial(alpha)
    c = max(sum(alpha) - 1, 1) * m
    _guard(c * m, max_terms, "Lie span at degree {} ({} candidates x {} words)", alpha, c, m)
    return _span(B, alpha, kind)


def _span(B: BraidingMatrix, alpha: tuple, kind: str) -> LieSpan:
    """L_alpha from B's span cache, else relabelled from the first span of
    its shape, else built from the spans below it (see lie_span) and
    recorded under its shape.

    The shape of a degree is its kind, its exponents on its support S and
    the q_ij for i, j in S, with scalars as (num, den) pairs, so no
    Fraction is hashed.  A relabelled span is the earlier one read through
    the increasing map of supports: the same value tuples and solver, and
    provenance words mapped letter by letter (trees hold no letters).
    This is exact: an increasing letter map keeps the lex order of words
    (so the dual words correspond entry by entry), the product order of
    splits and gamma > beta, and chi, the shuffle weights and the pivot
    columns read only entries inside S.

    A build skips a mirrored split gamma, where its candidates are
    multiples of those at beta: with p = chi(gamma, beta) and p' =
    chi(beta, gamma), the bracket table at gamma is -p' times the
    transpose of the one at beta when p * p' = 1 (always for minus), so
    [c, b] = -p' * [b, c].  Split beta < gamma comes first in product
    order and offers every [b, c] to the reducer, which would then refuse
    each [c, b].  A split whose bracket table cancels entirely offers
    nothing: each of its candidates is zero.  And the build stops once the
    span has rank m(alpha), since the reducer would refuse every later
    candidate.

    Candidates are built on integers over Z[zeta_N]: each basis vector
    below is read once per build as an integer row over the lcm of its
    denominators, a candidate is its pair shuffled through the split's
    integer table (see nichols), over the two scales times the table's
    denominator, and the reducer takes that row as it is.  Only a kept
    candidate becomes scalars, the same values the shuffle over Q(zeta_N)
    gives.
    """
    key = (alpha, kind)
    if key in B._lie_span_cache:
        return B._lie_span_cache[key]
    support, rows = tuple(i for i, a in enumerate(alpha) if a), B._rows
    shape = (kind, tuple(alpha[i] for i in support),
             tuple((rows[i][j].num, rows[i][j].den) for i in support for j in support))
    shapes = B._first_use("_shape_cache", lambda B: {})
    if (earlier := shapes.get(shape)) is not None:
        span = B._lie_span_cache[key] = _relabel(*earlier, alpha, support)
        return span
    d, m, order = sum(alpha), multinomial(alpha), B.order
    one, (zero, unit) = Scalar.one(order), _ring_units(order)
    vectors = {}  # degree -> its basis vectors as (nonzero integer pairs, scale)

    def integer_vectors(span):
        if span.degree not in vectors:
            vectors[span.degree] = [_integer_vector(nv.values) for nv in span.basis]
        return vectors[span.degree]

    def candidates():
        if d == 1:
            yield (None, (alpha.index(1) + 1,)), [unit], 1
            return
        tables = _ShuffleTables(B, alpha)
        mirrored = set()  # splits gamma > beta with p * p' = 1, met at beta
        for beta in product(*(range(a + 1) for a in alpha)):
            if 0 < sum(beta) < d and beta not in mirrored:
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                left, right = _span(B, beta, kind), _span(B, gamma, kind)
                if left.basis and right.basis:
                    p = B.chi(gamma, beta) if kind == BRAIDED else one
                    if gamma > beta and (kind == MINUS or (p * B.chi(beta, gamma)).is_one()):
                        mirrored.add(gamma)
                    bracket = tables.bracket(beta, gamma, p)
                    if bracket is None:  # every [b, c] here is zero
                        continue
                    table, den = bracket
                    fcs = integer_vectors(right)
                    for (tb, wb), (fb, sb) in zip(left.generators_used, integer_vectors(left)):
                        for (tc, wc), (fc, sc) in zip(right.generators_used, fcs):
                            acc = [zero] * m
                            _shuffle_into(acc, table, fb, fc)
                            yield ((tb, tc), wb + wc), acc, sb * sc * den

    reducer = _RowReducer()
    basis, provenance = [], []
    for source, acc, den in candidates():
        # the reducer's layout: at phi(N) > 1 coefficient lists, and 0 for a zero entry
        row = acc if type(zero) is int else [x.c if x else 0 for x in acc]
        if reducer.insert_integers(row, order):
            basis.append(NicholsVector(alpha, tuple(_scalars(order, row, den))))
            provenance.append(source)
            if reducer.rank == m:  # full: every later candidate is refused
                break
    span = B._lie_span_cache[key] = LieSpan(alpha, kind, basis, provenance, reducer)
    shapes[shape] = span, support
    return span


def _relabel(span: LieSpan, support: tuple, alpha: tuple, onto: tuple) -> LieSpan:
    """span, built on the (0-based) support, as the span at alpha, whose
    support onto has the same shape: letters map increasingly, and the
    values and the read-only solver are shared."""
    letter = {i + 1: j + 1 for i, j in zip(support, onto)}
    return LieSpan(
        alpha, span.kind,
        [NicholsVector(alpha, nv.values) for nv in span.basis],
        [(tree, tuple(letter[x] for x in word)) for tree, word in span.generators_used],
        span.solver,
    )


def monomial_membership(B: BraidingMatrix, word, kind: str, max_terms=None) -> MembershipReport:
    """Decide whether a monomial's image lies in the Lie span of its degree.

    A monomial that is zero in B(V) is reported as ZeroInNichols rather
    than Member: its support is representation-dependent, so the
    connectivity statements exclude it.  The span comes from lie_span,
    so a tighter cap is still checked against a cached span.
    """
    _check_choice(kind, (BRAIDED, MINUS), "bracket kind")
    word = tuple(word)
    if not word:
        raise ValueError("membership of the empty word is undefined")
    alpha = _check_degree(B, word_degree(word, B.n))
    _guard(multinomial(alpha), max_terms, "pairing vector at degree {}", alpha)
    target = _pairings(B, {word: Scalar.one(B.order)}, alpha)
    if not any(target):
        return MembershipReport(word, ZERO_IN_NICHOLS)
    span = lie_span(B, alpha, kind, max_terms)
    if not span.solver.contains(target):
        return MembershipReport(word, NOT_MEMBER, span=span)
    # The basis is independent, so the witness is unique: reducing
    # (target | 0) by the rows (basis[k] | e_k) leaves (0 | -witness).
    r = len(span.basis)
    zero, one = Scalar.zero(B.order), Scalar.one(B.order)
    augmented = _RowReducer()
    for k, nv in enumerate(span.basis):
        augmented.insert(nv.values + (zero,) * k + (one,) + (zero,) * (r - 1 - k))
    tail = augmented.reduce(target + (zero,) * r)[-r:]
    return MembershipReport(word, MEMBER, witness=[-v for v in tail], span=span)


def _member_test(B: BraidingMatrix, kind: str, max_terms):
    """The predicate word -> (monomial_membership(B, word, kind,
    max_terms).status == MEMBER) for words of valid letters, decided from
    the span lie_span looks up, with no witness solved for:

    - nothing is a member of an empty span; its degree is kept, and later
      words of it are answered without entering lie_span again, since
      the cap is the same on every call;
    - a span of rank m(alpha) is the whole pairing space: the m pairing
      vectors of the words of alpha span it, so they are independent, no
      word is zero in B(V), and every word is a member, with no pairing;
    - otherwise the word is paired once and tested by the span's solver.

    lie_span has checked the degree, and its guard, max(d - 1, 1) * m^2,
    covers the target's, m.  Where it refuses, monomial_membership answers
    in its own order: a zero word is still ZeroInNichols, and a refusal
    raises with the same text.
    """
    empty = set()

    def is_member(word: tuple) -> bool:
        alpha = word_degree(word, B.n)
        if alpha in empty:
            return False
        try:
            span = lie_span(B, alpha, kind, max_terms)
        except GuardrailExceeded:
            return monomial_membership(B, word, kind, max_terms).status == MEMBER
        if not span.basis:
            empty.add(alpha)
            return False
        if span.dimension == multinomial(alpha):
            return True
        target = _pairings(B, {word: Scalar.one(B.order)}, alpha)
        return any(target) and span.solver.contains(target)

    return is_member


def _check_d_max(d_max, least: int, bound: str) -> None:
    """ValueError unless the degree bound d_max is an int >= least (a bool
    is not one, as for max_terms); bound names least in the message."""
    if type(d_max) is not int:
        raise ValueError(f"d_max must be an int, got {d_max!r}")
    if d_max < least:
        raise ValueError(f"d_max must be at least {bound}")


def max_supports(B: BraidingMatrix, d_max: int, kind: str, max_terms=None):
    """Inclusion-maximal supports of member monomials of total degree <= d_max.

    Words are scanned in increasing total degree, lexicographically
    within a degree.  A word whose support is contained in an
    already-established member support cannot change the maximal set and
    is skipped, so the scan ends once the full support is a member.  A
    degree whose Lie span came back empty is asked once: its later words
    are skipped without a lookup.  A word is paired only when its span is
    neither empty nor full (see _member_test); each Lie span, and each
    lower span it is built from, is built once per multidegree and kept in
    B's span cache (see lie_span).
    """
    _check_choice(kind, (BRAIDED, MINUS), "bracket kind")
    _check_d_max(d_max, 1, "1")
    is_member = _member_test(B, kind, max_terms)
    member_supports = []
    for d in range(1, d_max + 1):
        for word in words_of_total_degree(B.n, d):
            s = frozenset(word)
            if any(s <= t for t in member_supports):
                continue
            if is_member(word):
                member_supports.append(s)
                if len(s) == B.n:  # it covers every later word
                    return [tuple(range(1, B.n + 1))]
    maximal = [
        s for s in member_supports
        if not any(s < t for t in member_supports)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)
