"""Reference build for lie._span: the engine's former loop, which pairs
the candidates of every split beta + gamma = alpha (no mirrored or
cancelling split is skipped, and no build stops at full rank) through two
product tables per split with Scalar weights, and keeps the suffix-shuffle
memo for one alpha only.

It is kept as a test oracle for lie._span, which pairs each split through
one bracket table, skips a mirrored split whose candidates are multiples of
earlier ones and a split whose bracket table cancels, stops once the span
is full, keeps the suffix shuffles of B across every alpha, and builds its
tables and candidate rows on integers over Z[zeta_N].  The oracle's tables
are the former Scalar-weight ones (ScalarTables, shuffle_into), so it runs
neither the integer kernel nor the integer reducer it checks: it reduces
with the Scalar reducer of scalar_reducer_oracle.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from nicholslie.freealg import BRAIDED, _multidegree_words, multinomial
from nicholslie.nichols import NicholsVector
from nicholslie.scalar import Scalar, _ring
from scalar_reducer_oracle import ScalarRowReducer


class ScalarTables:
    """The former nichols._ShuffleTables of degree alpha, with Scalar
    weights and memos for this instance only.  bracket(beta, gamma, p) is
    the table M of [u, v] = v*u - p*u*v over the i-th word u of beta and
    the j-th word v of gamma: M[i][j] lists the (k, w), w != 0, where w
    sums the weights prod q_{x,y}^-1 (x of the second factor placed before
    y of the first) of the interleavings of v*u that spell the k-th dual
    word of alpha, minus p times those of u*v; it is None when every entry
    cancels."""

    def __init__(self, B, alpha):
        self.B, self.one = B, Scalar.one(B.order)
        self.index = {word: k for k, word in enumerate(_multidegree_words(alpha))}
        self.memo, self.factors = {}, {}

    def bracket(self, beta, gamma, p):
        index, one = self.index, self.one
        p = one if p.is_one() else p
        table = []
        vs = _multidegree_words(gamma)
        for u in _multidegree_words(beta):
            row = []
            for v in vs:
                entry = {index[j]: w for j, w in self.shuffles(v, u)}
                for j, w in self.shuffles(u, v):
                    if p is not one:
                        w = p if w is one else w * p
                    k = index[j]
                    entry[k] = entry[k] - w if k in entry else -w
                row.append(tuple((k, w) for k, w in entry.items() if w))
            table.append(row)
        return table if any(map(any, table)) else None

    def factor(self, c, u):
        # prod q_{c,y}^-1 over the letters y of u: the weight of placing c before all of u
        if (c, u) not in self.factors:
            f = self.factor(c, u[1:]) if u else self.one
            g = self.B.inverse_row(c)[u[0] - 1] if u else self.one
            self.factors[(c, u)] = f if g is self.one else f * g
        return self.factors[(c, u)]

    def shuffles(self, u, v):
        # (dual word, weight) pairs: the dual word starts with u's first
        # letter, or with v's placed before all of u
        out = self.memo.get((u, v))
        if out is None:
            one = self.one
            if not u or not v:
                out = ((u + v, one),)
            else:
                acc = {(u[0],) + j: w for j, w in self.shuffles(u[1:], v)}
                f = self.factor(v[0], u)
                for j, w in self.shuffles(u, v[1:]):
                    j, w = (v[0],) + j, w if f is one else w * f
                    acc[j] = acc[j] + w if j in acc else w
                out = tuple((j, w) for j, w in acc.items() if w)
            self.memo[(u, v)] = out
        return out


def shuffle_into(acc: list, table, fu, fv, one) -> None:
    """Add into acc (None marks an untouched entry) the pairing vector the
    table gives u and v: the sum of f_u(i) * f_v(j) * w over the (k, w) of
    table[i][j], from the nonzero (index, value) pairs of f_u and f_v;
    unit weights are not multiplied."""
    for i, x in fu:
        row = table[i]
        for j, y in fv:
            xy = x * y
            for k, w in row[j]:
                w = xy if w is one else xy * w
                prev = acc[k]
                acc[k] = w if prev is None else prev + w


def ring_pair(p: Scalar) -> tuple:
    """A Scalar as the (numerator in Z[zeta_N], denominator) pair that
    nichols._ShuffleTables.bracket takes for p."""
    return _ring(p.order, p.num), p.den


def ring_scalar(order, w, den) -> Scalar:
    """An integer weight of nichols's tables (a plain int, or a
    scalar._Cyclotomic with coefficients w.c) divided by den, as a Scalar."""
    return Scalar(order, [Fraction(c, den) for c in ((w,) if isinstance(w, int) else w.c)])


def divided_table(order, result):
    """A nichols._ShuffleTables.bracket result (table, den) as the Scalar
    table it stands for, each entry divided by den; None stays None."""
    if result is None:
        return None
    table, den = result
    return [[tuple((k, ring_scalar(order, w, den)) for k, w in entry) for entry in row]
            for row in table]


class ProductTables(ScalarTables):
    """The former product tables of degree alpha: table(beta, gamma)[i][j]
    lists the (k, w), w != 0, where w sums the weights of the interleavings
    of the i-th word u of beta and the j-th word v of gamma that spell the
    k-th dual word of alpha, so that shuffle_into gives f_uv.  Each table
    is memoized for the instance (the c*b table at beta is the b*c table at
    gamma)."""

    def __init__(self, B, alpha):
        super().__init__(B, alpha)
        self.tables = {}

    def __call__(self, beta, gamma):
        key, index = (beta, gamma), self.index
        if key not in self.tables:
            vs = _multidegree_words(gamma)
            self.tables[key] = [[tuple((index[j], w) for j, w in self.shuffles(u, v)) for v in vs]
                                for u in _multidegree_words(beta)]
        return self.tables[key]


@dataclass
class OracleSpan:
    """The former lie.LieSpan, whose basis of NicholsVectors was made with it."""

    degree: tuple
    kind: str
    basis: list
    generators_used: list
    solver: ScalarRowReducer

    @property
    def dimension(self) -> int:
        return len(self.basis)


def oracle_span(B, alpha, kind, spans, paired=None) -> OracleSpan:
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
                            shuffle_into(acc, cb, fc, fb, one)          # f_c * f_b
                            shuffle_into(acc, bc, [(k, -(v * p)) for k, v in fb], fc, one)
                            values = tuple(zero if v is None else v for v in acc)
                            candidates.append((((tb, tc), wb + wc), values))
    reducer = ScalarRowReducer()
    basis, provenance = [], []
    for source, values in candidates:
        if reducer.insert(values):
            basis.append(NicholsVector(alpha, values))
            provenance.append(source)
    span = spans[alpha] = OracleSpan(alpha, kind, basis, provenance, reducer)
    return span
