"""Reference build for lie._span: the engine's former loop, which pairs
the candidates of every split beta + gamma = alpha (no mirrored or
cancelling split is skipped, and no build stops at full rank) through two
product tables per split, and keeps the suffix-shuffle memo for one alpha
only.

It is kept as a test oracle for lie._span, which pairs each split through
one bracket table, skips a mirrored split whose candidates are multiples of
earlier ones and a split whose bracket table cancels, stops once the span
is full, and keeps the suffix shuffles of B across every alpha.  It
reduces with the Scalar reducer of scalar_reducer_oracle, not the
engine's integer one.
"""

from itertools import product

from nicholslie.freealg import BRAIDED, _multidegree_words, multinomial
from nicholslie.lie import LieSpan
from nicholslie.nichols import NicholsVector, _ShuffleTables, _shuffle_into
from nicholslie.scalar import Scalar
from scalar_reducer_oracle import ScalarRowReducer


class ProductTables(_ShuffleTables):
    """The former product tables of degree alpha: table(beta, gamma)[i][j]
    lists the (k, w), w != 0, where w sums the weights of the interleavings
    of the i-th word u of beta and the j-th word v of gamma that spell the
    k-th dual word of alpha, so that _shuffle_into gives f_uv.  Each table
    is memoized for the instance (the c*b table at beta is the b*c table at
    gamma), and the suffix shuffles for this alpha only."""

    def __init__(self, B, alpha):
        super().__init__(B, alpha)
        self.memo, self.factors, self.tables = {}, {}, {}

    def __call__(self, beta, gamma):
        key, index = (beta, gamma), self.index
        if key not in self.tables:
            vs = _multidegree_words(gamma)
            self.tables[key] = [[tuple((index[j], w) for j, w in self.shuffles(u, v)) for v in vs]
                                for u in _multidegree_words(beta)]
        return self.tables[key]


def oracle_span(B, alpha, kind, spans, paired=None) -> LieSpan:
    """L_alpha, memoized in spans (a dict keyed by degree, one kind only);
    each split beta whose two spans are nonempty is appended to
    paired[alpha] when paired is a dict."""
    if alpha in spans:
        return spans[alpha]
    d, m = sum(alpha), multinomial(alpha)
    zero, one = Scalar.zero(B.order), Scalar.one(B.order)
    candidates = []
    if d == 1:
        candidates.append(((None, (alpha.index(1) + 1,)), (one,)))
    else:
        table = ProductTables(B, alpha)
        for beta in product(*(range(a + 1) for a in alpha)):
            if 0 < sum(beta) < d:
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                left = oracle_span(B, beta, kind, spans, paired)
                right = oracle_span(B, gamma, kind, spans, paired)
                if left.basis and right.basis:
                    if paired is not None:
                        paired.setdefault(alpha, []).append(beta)
                    p = B.chi(gamma, beta) if kind == BRAIDED else one
                    bc, cb = table(beta, gamma), table(gamma, beta)
                    for (tb, wb), nb in zip(left.generators_used, left.basis):
                        fb = [(k, v) for k, v in enumerate(nb.values) if v]
                        for (tc, wc), nc in zip(right.generators_used, right.basis):
                            fc = [(k, v) for k, v in enumerate(nc.values) if v]
                            acc = [None] * m
                            _shuffle_into(acc, cb, fc, fb, one)          # f_c * f_b
                            _shuffle_into(acc, bc, [(k, -(v * p)) for k, v in fb], fc, one)
                            values = tuple(zero if v is None else v for v in acc)
                            candidates.append((((tb, tc), wb + wc), values))
    reducer = ScalarRowReducer()
    basis, provenance = [], []
    for source, values in candidates:
        if reducer.insert(values):
            basis.append(NicholsVector(alpha, values))
            provenance.append(source)
    span = spans[alpha] = LieSpan(alpha, kind, basis, provenance, reducer)
    return span
