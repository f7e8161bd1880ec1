"""Per-degree spans of the Nichols (braided) Lie algebra inside B(V).

L_alpha is spanned by the images of all full bracketings of the words
of multidegree alpha.  The bracket is bilinear and ker(T(V) -> B(V)) is
a graded two-sided ideal, so L_alpha = span{[b, c] : b in L_beta, c in
L_gamma, beta + gamma = alpha}, which is how it is built, each [b, c]
paired from the stored pairing vectors of b and c by the quantum
shuffle of nichols; a degree of the same shape as an earlier one (the
same exponents and principal submatrix on its support) takes that span,
relabelled.  Monomial membership is an exact linear solve against that
span, and the scans of max_supports and of verify's thm-equiv walk
multidegrees, pairing words only where a span is neither empty nor full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import comb
from operator import sub

from .braiding import BraidingMatrix
from .freealg import (
    BRAIDED,
    MINUS,
    _check_choice,
    multinomial,
    word_degree,
    words_of_multidegree,
    words_of_total_degree,
)
from .nichols import (
    GuardrailExceeded,
    NicholsVector,
    _RowReducer,
    _ShuffleTables,
    _cap,
    _check_degree,
    _degree_den,
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

    solver is the row reducer that selected the basis; solver.reduce(v) is
    the exact residue of v, all zero exactly when v lies in the span, and
    solver.contains(r, order) is that test on an integer row.  _integer_rows
    holds each basis vector as the (pairs, scale) integer row of
    nichols._integer_vector, made once with the span: the spans above read
    these, not the basis, and shuffle them into the pairing vectors of
    their candidates.  A span relabelled from an earlier degree of the
    same shape (see _span) shares that degree's solver and rows, so a
    solver is read-only once its span is built: reduce it, never insert
    into it.
    """

    degree: tuple
    kind: str
    basis: list = field(repr=False)           # NicholsVector, linearly independent
    generators_used: list = field(repr=False)  # (tree, word) provenance per basis entry
    solver: _RowReducer = field(repr=False, compare=False)
    _integer_rows: list = field(repr=False, compare=False)  # (pairs, scale) per basis entry
    _need: tuple = field(repr=False, compare=False)  # (entries, candidates, words, table entries)
    _top: int = field(repr=False, compare=False)  # the largest need of its build and those below

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

    The guard counts what a build pairs.  With m counting the words of a
    degree, a build at alpha pairs at most sum dim L_beta * dim L_gamma
    candidates of m(alpha) words, over the splits whose two spans are
    nonempty (see _build), through bracket tables of
    at most m(alpha) * min(prod C(alpha_i, beta_i), m(beta) * m(gamma))
    entries each (see nichols), and needs the larger of the candidates'
    entries and the tables'; at degree 1 it pairs one candidate of one
    word.  Both are at most (d - 1) * m(alpha)^2, as sum m(beta) * m(gamma)
    over all splits is (d - 1) * m(alpha) (a pair of words is one word of
    alpha cut at one of d - 1 places), so no build needs more than that
    former bound, which grows with alpha.  The dimensions are known once
    the spans below are built, so those are built first, each under its
    own guard, and alpha's is checked before anything is paired there.  A
    nonempty span so needs at least m(alpha).

    A cap refuses at the first build, in the order a build on an empty
    cache checks them, whose need exceeds it, and names that build's
    degree and counts.  Each span keeps its own need and the largest need
    of its build and those below it, so a cached span whose largest need
    exceeds a tighter cap walks the spans below it again, all cached or
    relabelled, to the build that refuses first (_refusal): neither the
    answer nor the refusal depends on what B has cached.  Spans are
    cached on B per (degree, kind).
    """
    _check_choice(kind, (BRAIDED, MINUS), "bracket kind")
    return _span(B, _check_degree(B, alpha), kind, _cap(max_terms))


def _span(B: BraidingMatrix, alpha: tuple, kind: str, cap: int) -> LieSpan:
    """L_alpha from B's span cache, else relabelled from the first span of
    its shape, else built from the spans below it (see _build) and
    recorded under its shape; the refusal under cap, if any (see
    lie_span), is raised.

    The shape of a degree is its kind, its exponents on its support S and
    the q_ij for i, j in S, with scalars as (num, den) pairs, so no
    Fraction is hashed.  A relabelled span is the earlier one read through
    the increasing map of supports: the same value tuples, solver and
    needs, and provenance words mapped letter by letter (trees hold no
    letters).  This is exact: an increasing letter map keeps the lex order
    of words (so the dual words correspond entry by entry), the product
    order of splits and gamma > beta, and chi, the shuffle weights and
    the pivot columns read only entries inside S.
    """
    key, spans = (alpha, kind), B._lie_span_cache
    span = spans.get(key)
    if span is None:
        support, q = tuple(i for i, a in enumerate(alpha) if a), B._rows
        shape = (kind, tuple(alpha[i] for i in support),
                 tuple((q[i][j].num, q[i][j].den) for i in support for j in support))
        shapes = B._first_use("_shape_cache", lambda B: {})
        if (earlier := shapes.get(shape)) is not None:
            span = spans[key] = _relabel(*earlier, alpha, support)
        else:
            span = spans[key] = _build(B, alpha, kind, cap)
            shapes[shape] = span, support
    if span._top > cap:
        raise _refusal(B, span, cap)
    return span


def _splits(B: BraidingMatrix, alpha: tuple, kind: str, cap: int):
    """(beta, gamma, L_beta, L_gamma) for the splits beta + gamma = alpha
    of a build of alpha, in product order, each span read through _span
    under cap."""
    d, spans = sum(alpha), B._lie_span_cache
    for beta in product(*(range(a + 1) for a in alpha)):
        if 0 < sum(beta) < d:
            gamma = tuple(map(sub, alpha, beta))
            yield (beta, gamma, spans.get((beta, kind)) or _span(B, beta, kind, cap),
                   spans.get((gamma, kind)) or _span(B, gamma, kind, cap))


def _refusal(B: BraidingMatrix, span: LieSpan, cap: int) -> GuardrailExceeded:
    """The refusal under cap of a span whose largest need exceeds it: at
    the first span below it, in the order of its build, whose largest need
    exceeds cap, else at its own need.  The spans below it are cached, or
    are relabelled from the spans of their shapes, within its largest
    need."""
    for _, _, left, right in _splits(B, span.degree, span.kind, span._top):
        for lower in (left, right):
            if lower._top > cap:
                return _refusal(B, lower, cap)
    return _exceeded(span.degree, span._need, cap)


def _exceeded(alpha: tuple, need: tuple, cap: int) -> GuardrailExceeded:
    """The refusal of the build at alpha with the need (entries,
    candidates, words, table entries)."""
    entries, paired, m, cells = need
    return GuardrailExceeded(
        f"Lie span at degree {alpha} ({paired} candidates x {m} words, {cells} table entries)",
        entries, cap)


def _build(B: BraidingMatrix, alpha: tuple, kind: str, cap: int) -> LieSpan:
    """L_alpha built from the spans below it (see _splits).

    A split pairs only where both of its spans are nonempty, and the
    shuffle tables are made at the first such split.  A build skips a
    mirrored split gamma, where its candidates are multiples of those at
    beta: with p = chi(gamma, beta) and p' = chi(beta, gamma), the bracket
    table at gamma is -p' times the transpose of the one at beta when
    p * p' = 1 (always for minus), so [c, b] = -p' * [b, c].  Split
    beta < gamma comes first in product order and offers every [b, c] to
    the reducer, which would then refuse each [c, b].  The guard counts a
    mirrored split as paired, so that sizing it takes no chi.  A split
    whose bracket table cancels entirely offers nothing: each of its
    candidates is zero.  And the build stops once the span has rank
    m(alpha), since the reducer would refuse every later candidate.

    Candidates are built on integers over Z[zeta_N]: a candidate is a pair
    of integer rows of the spans below shuffled through the split's
    integer table (see nichols), over the two scales times the table's
    denominator, and the reducer takes that row as it is.  A kept
    candidate becomes scalars, the same values the shuffle over Q(zeta_N)
    gives, and, with the content it shares with its denominator divided
    out, the span's integer row for it: the lcm-scaled row of those
    scalars, so every build above reads it as made.
    """
    d, m, order = sum(alpha), multinomial(alpha), B.order
    one, (zero, unit) = Scalar.one(order), _ring_units(order)
    splits, top, entries = [], 0, 0
    paired = 1 if d == 1 else 0  # degree 1 pairs its generator
    for beta, gamma, left, right in _splits(B, alpha, kind, cap):
        if left._top > top or right._top > top:
            top = max(top, left._top, right._top)
            if top > cap:  # a cached span below refuses
                raise _refusal(B, left if left._top > cap else right, cap)
        if left.basis and right.basis:
            splits.append((beta, gamma, left, right))
            paired += left.dimension * right.dimension
            # m(alpha) * min(prod C(alpha_i, beta_i), m(beta) * m(gamma)), as
            # prod C(alpha_i, beta_i) = m(beta) * m(gamma) * C(d, |beta|) / m(alpha)
            entries += _words(beta) * _words(gamma) * min(comb(d, sum(beta)), m)
    need = (max(paired * m, entries), paired, m, entries)
    if need[0] > cap:
        raise _exceeded(alpha, need, cap)

    def candidates():
        if d == 1:
            yield (None, (alpha.index(1) + 1,)), [unit], 1
        elif splits:
            tables = _ShuffleTables(B, alpha)
            mirrored = set()  # splits gamma > beta with p * p' = 1, met at beta
            for beta, gamma, left, right in splits:
                if beta in mirrored:
                    continue
                p = B.chi(gamma, beta) if kind == BRAIDED else one
                if gamma > beta and (kind == MINUS or (p * B.chi(beta, gamma)).is_one()):
                    mirrored.add(gamma)
                bracket = tables.bracket(beta, gamma, p)
                if bracket is None:  # every [b, c] here is zero
                    continue
                table, den = bracket
                fcs = right._integer_rows
                for (tb, wb), (fb, sb) in zip(left.generators_used, left._integer_rows):
                    for (tc, wc), (fc, sc) in zip(right.generators_used, fcs):
                        acc = [zero] * m
                        _shuffle_into(acc, table, fb, fc)
                        yield ((tb, tc), wb + wc), acc, sb * sc * den

    reducer = _RowReducer()
    basis, provenance, rows = [], [], []
    for source, acc, den in candidates():
        # the reducer's layout: at phi(N) > 1 coefficient lists, and 0 for a zero entry
        row = acc if type(zero) is int else [x.c if x else 0 for x in acc]
        if reducer.insert_integers(row, order):
            basis.append(NicholsVector(alpha, tuple(_scalars(order, row, den))))
            provenance.append(source)
            rows.append(_integer_vector(order, row, den))
            if reducer.rank == m:  # full: every later candidate is refused
                break
    return LieSpan(alpha, kind, basis, provenance, reducer, rows, need, max(top, need[0]))


def _relabel(span: LieSpan, support: tuple, alpha: tuple, onto: tuple) -> LieSpan:
    """span, built on the (0-based) support, as the span at alpha, whose
    support onto has the same shape: letters map increasingly, and the
    values, the read-only solver, the integer rows and the needs are
    shared."""
    letter = {i + 1: j + 1 for i, j in zip(support, onto)}
    return LieSpan(
        alpha, span.kind,
        [NicholsVector(alpha, nv.values) for nv in span.basis],
        [(tree, tuple(letter[x] for x in word)) for tree, word in span.generators_used],
        span.solver, span._integer_rows, span._need, span._top,
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
    target = _pairings(B, {word: _ring_units(B.order)[1]}, alpha)
    if not any(target):
        return MembershipReport(word, ZERO_IN_NICHOLS)
    span = lie_span(B, alpha, kind, max_terms)
    if not span.solver.contains(target, B.order):
        return MembershipReport(word, NOT_MEMBER, span=span)
    # The basis is independent, so the witness is unique: reducing
    # (target | 0) by the rows (basis[k] | e_k) leaves (0 | -witness).
    target = tuple(_scalars(B.order, target, _degree_den(B, alpha)))
    r = len(span.basis)
    zero, one = Scalar.zero(B.order), Scalar.one(B.order)
    augmented = _RowReducer()
    for k, nv in enumerate(span.basis):
        augmented.insert(nv.values + (zero,) * k + (one,) + (zero,) * (r - 1 - k))
    tail = augmented.reduce(target + (zero,) * r)[-r:]
    return MembershipReport(word, MEMBER, witness=[-v for v in tail], span=span)


def _member(B: BraidingMatrix, span: LieSpan, word: tuple) -> bool:
    """Whether a word of span's degree is a member, with no witness
    solved for:

    - a span of rank m(alpha) is the whole pairing space: the m pairing
      vectors of the words of alpha span it, so they are independent, no
      word is zero in B(V), and every word is a member, with no pairing;
    - nothing is a member of an empty span, and no word is paired;
    - otherwise the word is paired and tested by the span's solver.  Its
      pairing vector has m(alpha) entries, and the guard of a nonempty
      span needed at least that (see lie_span).
    """
    if span.dimension == _words(span.degree):
        return True
    if not span.basis:
        return False
    target = _pairings(B, {word: _ring_units(B.order)[1]}, span.degree)
    return any(target) and span.solver.contains(target, B.order)


def _first_member(B: BraidingMatrix, alpha: tuple, kind: str, cap: int):
    """The lex-first member word of degree alpha, or None; the words of an
    empty span are not listed."""
    span = _span(B, alpha, kind, cap)
    words = words_of_multidegree(alpha) if span.basis else ()
    return next((word for word in words if _member(B, span, word)), None)


def _is_member(B: BraidingMatrix, word: tuple, kind: str, cap: int) -> bool:
    """monomial_membership(B, word, kind, cap).status == MEMBER for a word
    of valid letters, read from its degree's span (see _member).  Where
    that span is refused, monomial_membership answers in its own order: a
    zero word is still ZeroInNichols, and a refusal raises with the same
    text."""
    try:
        span = _span(B, word_degree(word, B.n), kind, cap)
    except GuardrailExceeded:
        return monomial_membership(B, word, kind, cap).status == MEMBER
    return _member(B, span, word)


_words = lru_cache(maxsize=4096)(multinomial)  # m(alpha) for a tuple alpha


@lru_cache(maxsize=256)
def _degrees(n: int, d: int) -> tuple:
    """(alpha, its lex-least word x_1^alpha_1 ... x_n^alpha_n) for the
    multidegrees of total degree d over n letters, in the order of those
    words: decreasing lex order of alpha.  It is the order in which a lex
    scan of the words of length d first meets each degree."""
    if n == 1:
        return (((d,), (1,) * d),)
    return tuple(((a,) + alpha, (1,) * a + tuple(x + 1 for x in word))
                 for a in range(d, -1, -1) for alpha, word in _degrees(n - 1, d - a))


def _check_d_max(d_max, least: int, bound: str) -> None:
    """ValueError unless the degree bound d_max is an int >= least (a bool
    is not one, as for max_terms); bound names least in the message."""
    if type(d_max) is not int:
        raise ValueError(f"d_max must be an int, got {d_max!r}")
    if d_max < least:
        raise ValueError(f"d_max must be at least {bound}")


def max_supports(B: BraidingMatrix, d_max: int, kind: str, max_terms=None):
    """Inclusion-maximal supports of member monomials of total degree <= d_max.

    This is the answer of a scan of the words in increasing total degree,
    lexicographically within a degree, that skips a word whose support is
    contained in that of a member word met earlier, and that ends once
    the full support is a member.  A word's support and the dimension of
    its Lie span belong to its multidegree, so the scan walks the degrees
    of each length in the order the word scan first meets them (_degrees).
    A degree is skipped where a member word met before its lex-least word
    covers its support.  Otherwise its span is looked up: an empty one has
    no member, a full one has its least word as the first, and only a
    span between the two has its words paired, in lex order, up to the
    first member (see _member).  Each Lie span, and each lower span it is
    built from, is built once per multidegree and kept in B's span cache.

    A degree whose span is refused ends the degree walk of its length:
    that length is scanned again word by word from its start, each word
    answered by monomial_membership where its span is refused (see
    _is_member).  A member word counts for a word only when met before
    it, so those the degree walk found later in lex order cover nothing
    here, and a refusal raises the text the word scan would raise.
    """
    _check_choice(kind, (BRAIDED, MINUS), "bracket kind")
    _check_d_max(d_max, 1, "1")
    n, cap = B.n, _cap(max_terms)
    found = []  # (support, (length, word)) per member word found

    def covered(support, key):
        return any(support <= s and k < key for s, k in found)

    for d in range(1, d_max + 1):
        try:
            for alpha, least in _degrees(n, d):
                support = frozenset(least)
                if not covered(support, (d, least)):
                    word = _first_member(B, alpha, kind, cap)
                    if word is not None:
                        found.append((support, (d, word)))
        except GuardrailExceeded:
            for word in words_of_total_degree(n, d):
                support = frozenset(word)
                if not covered(support, (d, word)) and _is_member(B, word, kind, cap):
                    found.append((support, (d, word)))
        if any(len(s) == n for s, _ in found):  # it covers every later word
            return [tuple(range(1, n + 1))]
    supports = {s for s, _ in found}
    return sorted(tuple(sorted(s)) for s in supports if not any(s < t for t in supports))
