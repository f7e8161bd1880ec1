"""Zeroness and linear structure in the Nichols algebra B(V).

The dual generators y_i act on the tensor algebra as skew derivations

    D_i(x_j * v) = delta_ij * v + q_ij^-1 * x_j * D_i(v)

and a homogeneous element is zero in B(V) exactly when every iterated
derivation down to degree zero vanishes.  Its pairing vector f
(NicholsVector) holds those values: entry k belongs to the k-th dual
word j of its degree in lexicographic order, and is the scalar left by
applying D_{j_1} first, then D_{j_2}, and so on.  The descent runs on
integers of Z[zeta_N] (ints at phi(N) = 1, else scalar._Cyclotomic),
fraction-free (compare E. H. Bareiss, Math. Comp. 22, 1968): with
q_xy^-1 = a_xy / b_xy and g_xy = lcm(b_xy, b_yx), D_i weighs the x_i at
place k of a word w by prod_{l<k} a'_{i,w_l} * prod_{l>k} g_{i,w_l},
a' = a * g / b, over prod_{l!=k} g_{i,w_l}, fixed by the degree.  As g is
symmetric, the pairing values of degree alpha share one denominator
(_degree_den), and scalars are made only where a caller reads them.  One
descent (_descent) yields the nonzero values in dual-word order, applying
D_i down to three letters and reading the memoized pairing rows of the
words left; a vanished branch yields nothing, so the zero test is whether
the descent has a first value.  For a product u*v, u of degree beta, the
quantum shuffle (M. Rosso, Invent. Math. 133, 1998) fills it from f_u and
f_v alone, summing over the position sets S of j that spell a word of
degree beta:

    f_uv(j) = sum_S f_u(j_S) * f_v(j_not_S) * prod q_{j_k, j_l}^-1
              (over k not in S, l in S, l > k).

A bracket [b, c] = c*b - p*b*c, b of degree beta and c of degree
gamma = alpha - beta, is paired through one table that folds both
products' interleaving weights, of at most
m(alpha) * min(prod C(alpha_i, beta_i), m(beta) * m(gamma)) entries,
m counting the words of a degree (_ShuffleTables.bracket, _shuffle_into).
Every weight is an integer of Z[zeta_N] over prod b_ij^(gamma_i * beta_j),
which depends on the degrees alone, so a table is integer entries over
one denominator, and f_b and f_c enter it as integer rows over the lcm of
their denominators: a candidate row is built on integers from the table
to the reducer.  The tables are built from the shuffles of suffix pairs
of words, which depend on B alone and are memoized per matrix with each
dual word as its lex index, and p is read from B's entries as an integer
pair, so a table is built with no dual word and no scalar made.  Exact
elimination on integer rows (_RowReducer) gives dim B(V)_alpha and
membership, cross-checked by the rank of a quantum symmetrizer, whose rows
are integers too.  basis_of_degree first eliminates the images of its
integer rows mod a prime p = 1 (mod N), zeta_N mapped to a primitive N-th
root of unity: a one-sided certificate, since independence mod p proves
full rank over Q(zeta_N) and dependence mod p proves nothing, so any other
degree is eliminated exactly.  The symmetrizer rank stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul

from .braiding import BraidingMatrix
from .freealg import FreeElement, _collect, _multidegree_words, _word_index, multinomial, word_degree
from .scalar import (GuardrailExceeded, Scalar, _canonical, _Cyclotomic, _norm_cofactor, _product,
                     _residue_field, _ring, _ring_units, euler_phi)

__all__ = [
    "MAX_TERMS_DEFAULT",
    "MAX_DEGREE",
    "GuardrailExceeded",
    "NicholsVector",
    "skew_derivation",
    "pairing_vector",
    "is_zero_in_nichols",
    "basis_of_degree",
    "symmetrizer_rank_oracle",
]

MAX_TERMS_DEFAULT = 10**6

# The pairing descent and the Lie-span construction nest once per letter,
# and the counts the guards format grow factorially with the degree, so a
# larger total degree is refused before either; under pytest the nesting
# overflows Python's default stack from about 480 letters.
MAX_DEGREE = 200

# Descent nodes of at most this many letters read the pairing rows of
# their words from B._pairing_row_cache (at most n + n^2 + n^3 rows of at
# most 6 entries) instead of applying _skew; longer words are not memoized,
# because their rows grow factorially and are seldom met twice.
SHORT_ROW_LETTERS = 3


def _cap(max_terms) -> int:
    """The size cap max_terms names: MAX_TERMS_DEFAULT for None, else
    max_terms itself, which must be an int >= 0 (ValueError otherwise)."""
    cap = MAX_TERMS_DEFAULT if max_terms is None else max_terms
    if type(cap) is not int:  # not isinstance(): a bool is no cap
        raise ValueError(f"max_terms must be an int >= 0, got {cap!r}")
    if cap < 0:
        raise ValueError(f"max_terms must be >= 0, got {cap}")
    return cap


def _guard(needed: int, max_terms, what: str, *args) -> None:
    """GuardrailExceeded if needed exceeds the cap (see _cap); entry points only.
    Its text is what.format(*args), formatted only on a refusal."""
    cap = _cap(max_terms)
    if needed > cap:
        raise GuardrailExceeded(what.format(*args), needed, cap)


def _check_degree(B: BraidingMatrix, alpha) -> tuple:
    """alpha as a tuple, checked once where it enters the library:
    ValueError if it is no multidegree of rank B.n (entries exactly int
    and >= 0: a bool or float entry is refused, as for letters) or has
    total degree 0, GuardrailExceeded if its total degree exceeds MAX_DEGREE."""
    alpha = tuple(alpha)
    if len(alpha) != B.n or any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError(f"bad multidegree {alpha} for rank {B.n}")
    total = sum(alpha)
    if total == 0:
        raise ValueError("operation needs degree >= 1, got a degree-0 element")
    if total > MAX_DEGREE:
        raise GuardrailExceeded(f"total degree of {alpha}", total, MAX_DEGREE, "letters")
    return alpha


@dataclass
class NicholsVector:
    """The pairing vector of a homogeneous element (layout: see the module
    docstring); the element is zero in B(V) iff all values vanish."""

    degree: tuple
    values: tuple = field(repr=False)

    def is_zero(self) -> bool:
        return not any(self.values)


def _homogeneous_degree(B: BraidingMatrix, u: FreeElement):
    u._check_matrix(B)
    deg = u.degree()  # raises NonHomogeneousError on mixed input
    return None if deg is None else _check_degree(B, deg)


def _descent_table(B: BraidingMatrix) -> tuple:
    """(rows, pairs) of the descent on B (see the module docstring):
    rows[i - 1] is (a'_iy, an int where rational; g_iy, or None if all 1)
    over y, pairs the (x, y, g_xy), 0-based x <= y, with g_xy != 1."""
    inverses = [B.inverse_row(i) for i in range(1, B.n + 1)]
    rows = []
    for i, row in enumerate(inverses):
        g = [lcm(e.den, inverses[j][i].den) for j, e in enumerate(row)]
        a = [[c * (h // e.den) for c in e.num] for e, h in zip(row, g)]
        rows.append(([x[0] if not any(x[1:]) else _Cyclotomic(B.order, x) for x in a],
                     None if g.count(1) == len(g) else g))
    return tuple(rows), tuple((x, y, h) for x, (_, g) in enumerate(rows) if g
                              for y, h in enumerate(g) if y >= x and h != 1)


def _degree_den(B: BraidingMatrix, alpha) -> int:
    """The denominator of the pairing values of degree alpha of an integer
    element: prod_{x<y} g_xy^(alpha_x * alpha_y) * prod_x g_xx^C(alpha_x, 2)."""
    den = 1
    if sum(alpha) > 1:  # a single letter pairs no two, and needs no table
        for x, y, h in B._first_use("_descent_table", _descent_table)[1]:
            den *= h ** (alpha[x] * alpha[y] if x != y else comb(alpha[x], 2))
    return den


def _skew(B: BraidingMatrix, i: int, terms: dict) -> dict:
    # D_i on a word -> Z[zeta_N] map: one pass per word.  At each x_i the
    # running product of a'_{i, w_l} over the prefix takes the letters
    # since the last x_i (from done on), so nothing is multiplied past the
    # last x_i or in a word without one; factors 1 are skipped.  Where a
    # g_iy != 1, each x_i also takes its suffix product of g.  The
    # accumulation is inlined: this is the innermost loop of every descent.
    a, g = B._first_use("_descent_table", _descent_table)[0][i - 1]
    out = {}
    for word, coeff in terms.items():
        running, done = coeff, 0
        if g is not None:  # tails[k] = prod g_{i, w_l} over l > k
            tails = list(accumulate([g[x - 1] for x in word[:0:-1]], mul, initial=1))[::-1]
        for k, letter in enumerate(word):
            if letter == i:
                for x in word[done:k]:
                    if (f := a[x - 1]) != 1:
                        running = running * f
                done = k
                w = running if g is None else running * tails[k]
                reduced = word[:k] + word[k + 1:]
                acc = out.get(reduced)
                acc = w if acc is None else acc + w
                if acc:
                    out[reduced] = acc
                elif reduced in out:
                    del out[reduced]
    return out


def _integer_terms(order: int, terms: dict) -> tuple:
    """(word -> element of Z[zeta_N], scale) of a word -> scalar map: its
    scalars times scale, the lcm of their denominators."""
    scale = lcm(*[x.den for x in terms.values()])
    return {w: _ring(order, x.num if x.den == scale else [c * (scale // x.den) for c in x.num])
            for w, x in terms.items()}, scale


def skew_derivation(B: BraidingMatrix, i: int, u: FreeElement) -> FreeElement:
    """D_i(u): lowers the multidegree by e_i; zero when u contains no x_i."""
    word_degree((i,), B.n)  # the letter check
    deg = _homogeneous_degree(B, u)
    terms, scale = _integer_terms(u.order, u.terms)
    out = _skew(B, i, terms)
    if out:  # over scale and the g_{i, y} of every letter but one x_i
        scale *= _degree_den(B, deg) // _degree_den(B, deg[:i - 1] + (deg[i - 1] - 1,) + deg[i:])
    values = _scalars(u.order, [v if type(v) is int else v.c for v in out.values()], scale)
    return FreeElement._of(u.n, u.order, dict(zip(out, values)))


def _pairing_row(B: BraidingMatrix, word) -> tuple:
    """The _descent of a monomial of at most SHORT_ROW_LETTERS letters,
    memoized per matrix."""
    rows = B._pairing_row_cache
    row = rows.get(word)
    if row is None:
        one = _ring_units(B.order)[1]
        row = ((0, one),) if len(word) == 1 else tuple(
            _descent(B, {word: one}, word_degree(word, B.n), rows=False))
        rows[word] = row
    return row


def _descent(B: BraidingMatrix, terms: dict, alpha, offset=0, rows=True, charge=None):
    """The nonzero values, over _degree_den(B, alpha), of the pairing vector
    of a word -> Z[zeta_N] map of degree alpha, as (offset + index, value)
    pairs in dual-word order; nothing for a vanished branch.  The block of
    dual words starting with i is D_i(terms) descended, after charge (if
    any) of the words the step emits, len(terms) * alpha_i; with rows, a
    degree of at most SHORT_ROW_LETTERS letters sums its words' rows."""
    if not terms:
        return
    d, m = sum(alpha), multinomial(alpha)
    if rows and d <= SHORT_ROW_LETTERS:
        values = [None] * m
        for word, coeff in terms.items():
            for idx, v in _pairing_row(B, word):
                v = coeff * v
                acc = values[idx]
                values[idx] = v if acc is None else acc + v
        yield from ((offset + k, v) for k, v in enumerate(values) if v)
        return
    for idx, count in enumerate(alpha):
        if count:
            if charge:
                charge(len(terms) * count)
            reduced = alpha[:idx] + (count - 1,) + alpha[idx + 1:]
            yield from _descent(B, _skew(B, idx + 1, terms), reduced, offset, True, charge)
            offset += m * count // d  # multinomial(reduced)


def _pairings(B: BraidingMatrix, terms: dict, alpha) -> list:
    """The pairing vector of a word -> Z[zeta_N] map of degree alpha as an
    integer row in _RowReducer's layout, over _degree_den(B, alpha): the
    values of _descent, zero elsewhere."""
    row = [0] * multinomial(alpha)
    for k, v in _descent(B, terms, alpha):
        row[k] = v if type(v) is int else v.c
    return row


def _vanishes(B: BraidingMatrix, terms: dict, alpha, charge=None) -> bool:
    """Whether a word -> int map of degree alpha (a classical bracket) is
    zero in B(V): each int is lifted into Z[zeta_N] once (scalar._ring, a
    plain int at phi(N) = 1), and the descent, charged to charge (if any,
    see _word_charge), ends at its first nonzero value."""
    pad = [0] * (euler_phi(B.order) - 1)
    lifted = {w: _ring(B.order, [c, *pad]) for w, c in terms.items()}
    return next(_descent(B, lifted, alpha, charge=charge), None) is None


def _word_charge(cap: int, alpha):
    """The charge of one descent at degree alpha (see _descent):
    GuardrailExceeded once the words charged to it pass cap."""
    spent = [0]

    def charge(words):
        spent[0] += words
        if spent[0] > cap:
            raise GuardrailExceeded(f"pairing descent at degree {alpha}", spent[0], cap, "words")

    return charge


def _shuffle_memos(B: BraidingMatrix) -> tuple:
    """The memos of _ShuffleTables on B: suffix shuffles, factors, the
    inverses q_xy^-1 = a_xy / b_xy as a matrix of numerators a (in
    Z[zeta_N], scalar._ring) and one of positive int denominators b, and
    the entries q_xy as such (numerator, denominator) pairs, None for 1."""
    inverses = [B.inverse_row(i) for i in range(1, B.n + 1)]
    return ({}, {}, tuple(tuple(_ring(B.order, e.num) for e in row) for row in inverses),
            tuple(tuple(e.den for e in row) for row in inverses),
            tuple(tuple(None if e.is_one() else (_ring(B.order, e.num), e.den) for e in row)
                  for row in B._rows))


@lru_cache(maxsize=4096)
def _blocks(alpha) -> tuple:
    """Per letter x, the index in the lex order of the words of alpha of
    the first word that starts with x: sum m(alpha - e_y) over y < x, each
    m(alpha - e_y) = m(alpha) * alpha_y / |alpha|."""
    m, d = multinomial(alpha), sum(alpha)
    return tuple(accumulate((m * a // d for a in alpha[:-1]), initial=0))


class _ShuffleTables:
    """Pairing tables of the brackets on B, fraction-free over Z[zeta_N].
    Write q_xy^-1 = a_xy / b_xy.  An interleaving of a word u of degree beta
    with a word v of degree gamma weighs prod q_{x,y}^-1 over the pairs
    with x of v placed before y of u: the product of a_xy over those pairs
    and of b_xy over the others, divided by prod b_ij^(gamma_i * beta_j),
    which depends on (beta, gamma) alone.  So the shuffles of u and v hold
    integer weights over that denominator.

    chi(alpha, beta) is chi as a pair (a, b), a in Z[zeta_N] and b > 0 an
    int with no common content, the Scalar's num and den, read from the
    entries' pairs; inverses(p, p') tests p * p' = 1 on two such pairs.
    bracket(beta, gamma, p) is (M, D) for [u, v] = v*u - p*u*v, p such a
    pair, over the i-th word u of beta and the j-th word v of gamma:
    M[i][j] lists the (k, w), w != 0, where w / D sums the weights of the
    interleavings of v*u that spell the k-th dual word of alpha = beta +
    gamma, minus p times those of u*v, with p's numerator and denominator
    folded into w and D.  It is None when every entry cancels, and then
    every bracket of that split is zero in B(V).  A table is built once per
    split and not kept.  It is read from the shuffles of suffix pairs,
    which are never enumerated (with repeated letters there are
    exponentially many) and hold each dual word as its lex index among the
    words of its degree, so no dual word is built: x * j has the index of
    j plus the offset of x's block (_blocks), and a lone word the index
    freealg._word_index gives it.  Like the factors and the integer entry
    tables, they depend on B and the words alone, so all are kept on B
    (B._shuffle_cache) and shared by every alpha; they hold words and
    ints, never B, so they make no reference cycle.  Weights are plain ints
    at phi(N) = 1 and scalar._Cyclotomic otherwise."""

    def __init__(self, B: BraidingMatrix):
        self.order, self.one, self.letters = B.order, _ring_units(B.order)[1], range(1, B.n + 1)
        self.memo, self.factors, self.nums, self.dens, self.entries = B._first_use(
            "_shuffle_cache", _shuffle_memos)

    def chi(self, alpha, beta) -> tuple:
        num, den = self.one, 1
        for a, row in zip(alpha, self.entries):
            if a:
                for b, entry in zip(beta, row):
                    if b and entry:
                        num, den = num * entry[0] ** (a * b), den * entry[1] ** (a * b)
        content = (num,) if type(num) is int else num.c
        g = gcd(den, *content)
        return (num, den) if g == 1 else (_ring(self.order, [c // g for c in content]), den // g)

    def inverses(self, p, q) -> bool:
        return not (p[0] * q[0] - self.one * (p[1] * q[1]))

    def bracket(self, beta, gamma, p):
        (num, p_den), dens = p, self.dens
        d_vu = d_uv = 1  # the denominators of the shuffles of v*u and of u*v
        for i, row in enumerate(dens):
            for j, b in enumerate(row):
                if b != 1:
                    d_vu *= b ** (beta[i] * gamma[j])
                    d_uv *= b ** (gamma[i] * beta[j])
        den = lcm(d_vu, d_uv * p_den)
        s, c = den // d_vu, num * (den // (d_uv * p_den))
        table = []
        vs = _multidegree_words(gamma)
        for u in _multidegree_words(beta):
            row = []
            for v in vs:
                entry = {k: w * s for k, w in self.shuffles(v, u)}
                for k, w in self.shuffles(u, v):
                    w = w * c
                    entry[k] = entry[k] - w if k in entry else -w
                row.append(tuple((k, w) for k, w in entry.items() if w))
            table.append(row)
        return (table, den) if any(map(any, table)) else None

    def factor(self, c, u):
        # (prod a_{c,y}, prod b_{y,c}) over the letters y of u: the weight
        # of placing c before all of u, and the denominator of placing it after
        out = self.factors.get((c, u))
        if out is None:
            if u:
                a, b = self.factor(c, u[1:])
                out = a * self.nums[c - 1][u[0] - 1], b * self.dens[u[0] - 1][c - 1]
            else:
                out = self.one, 1
            self.factors[(c, u)] = out
        return out

    def shuffles(self, u, v):
        # (dual-word index, integer weight) pairs: the dual word starts with
        # u's first letter, placed before all of v, or with v's placed before
        # all of u, and x * j has the index of j plus the offset of x's block
        # (_blocks).  When those letters differ the two halves lie in
        # different blocks, and no weight is 0 (Z[zeta_N] has no zero
        # divisors), so they are joined as they are, which is what _merged
        # would return
        out = self.memo.get((u, v))
        if out is None:
            if not u or not v:
                w = u or v
                out = ((_word_index(tuple(map(w.count, self.letters)))[w], self.one),)
            else:
                x, y = u[0], v[0]
                blocks = _blocks(tuple(map((u + v).count, self.letters)))
                g, f = self.factor(x, v)[1], self.factor(y, u)[0]
                ox, oy = blocks[x - 1], blocks[y - 1]
                first = [(ox + j, w * g) for j, w in self.shuffles(u[1:], v)]
                second = [(oy + j, w * f) for j, w in self.shuffles(u, v[1:])]
                out = tuple(first + second) if x != y else _merged(first, second)
            self.memo[(u, v)] = out
        return out


def _merged(first, second) -> tuple:
    """The (dual-word index, weight) pairs of first, then those of second
    whose index first lacks, with the weights of an index in both summed
    and a zero sum dropped; each list names an index at most once."""
    acc = dict(first)
    for j, w in second:
        acc[j] = acc[j] + w if j in acc else w
    return tuple((j, w) for j, w in acc.items() if w)


def _shuffle_into(acc: list, table, fu, fv) -> None:
    """Add into acc, a list of elements of Z[zeta_N] (plain ints at
    phi(N) = 1, as the weights), the sum of f_u(i) * f_v(j) * w over the
    (k, w) of table[i][j], for the rows of a _ShuffleTables.bracket table
    and the nonzero (index, value) pairs of integer rows f_u and f_v
    (_integer_vector): the pairing vector of [u, v] times the table's
    denominator and the scales of f_u and f_v."""
    for i, x in fu:
        row = table[i]
        for j, y in fv:
            xy = x * y
            for k, w in row[j]:
                acc[k] += xy * w


def pairing_vector(B: BraidingMatrix, u: FreeElement, max_terms=None) -> NicholsVector:
    """All iterated pairing values of a homogeneous element, by the descent."""
    deg = _homogeneous_degree(B, u)
    if deg is None:
        raise ValueError("the zero element has no well-defined pairing degree")
    _guard(multinomial(deg), max_terms, "pairing vector at degree {}", deg)
    terms, scale = _integer_terms(B.order, u.terms)
    return NicholsVector(deg, tuple(_scalars(B.order, _pairings(B, terms, deg), scale * _degree_den(B, deg))))


def word_pairing_vector(B: BraidingMatrix, word, max_terms=None) -> NicholsVector:
    """pairing_vector of a single monomial."""
    return pairing_vector(B, FreeElement.from_word(B.n, B.order, word), max_terms)


def is_zero_in_nichols(B: BraidingMatrix, u: FreeElement, max_terms=None) -> bool:
    """Whether a homogeneous element maps to zero in B(V).

    Depth-first descent with early exit: u = 0 iff D_i(u) = 0 in B(V)
    for every generator i occurring in its degree.  The cap (see _cap)
    bounds the words the D_i steps of the call emit, t * alpha_i on t words
    of degree alpha (not the memoized short rows, shared by all calls on
    B): GuardrailExceeded before the step that would pass it.
    """
    cap = _cap(max_terms)
    deg = _homogeneous_degree(B, u)
    return deg is None or next(_descent(B, _integer_terms(B.order, u.terms)[0], deg,
                                        charge=_word_charge(cap, deg)), None) is None


class _RowReducer:
    """Incremental exact row reduction (an echelon basis) of rows of
    scalars, run fraction-free on integers over Z[zeta_N] (compare
    E. H. Bareiss, Math. Comp. 22, 1968).

    A row enters scaled by the lcm of its denominators, each entry as its
    phi(N) integer coefficients, a plain int when phi(N) = 1 (a zero entry
    is 0 at every order).  A pivot is a primitive integer row whose lead is
    a positive rational integer D: where the lead has z-terms, the row is
    first multiplied by the lead's norm cofactor (scalar._norm_cofactor).
    It is kept under its lead column as (D, the nonzero (index, entry)
    pairs after the lead).  Reducing a row r by it takes the entry c of r at the
    lead and g = gcd(D, content(c)), and sets r <- (D/g) * r - (c/g) *
    pivot, multiplying in Z[zeta_N] only at the pivot's nonzero entries.
    The integer residue over the scale the row gathered (its lcm times
    every D/g) is then exactly the residue of elimination by pivots
    normalized to a leading 1, and each lead is the first nonzero column
    of a residue, so it depends only on which entries are nonzero, and
    the pivot kept for a row is the same for any nonzero rational multiple
    of it, so insert_integers takes a Lie-span candidate as the integer
    row it was built as.  Insertion order is the deterministic pivot
    choice, and reduce walks the pivots in it (each is zero at the leads
    inserted before it).
    """

    def __init__(self):
        self._by_lead = {}

    @property
    def rank(self) -> int:
        return len(self._by_lead)

    def _eliminate(self, r, order: int) -> tuple:
        """(integer residue, the factor it gathered) of a nonempty integer
        row, which is not changed."""
        r, scale = list(r), 1
        if euler_phi(order) == 1:
            for lead, (D, rest) in self._by_lead.items():
                c = r[lead]
                if c:
                    g = gcd(D, c)
                    if g != D:
                        a = D // g
                        r = [a * x for x in r]
                        scale *= a
                    b = c // g
                    for idx, v in rest:
                        r[idx] -= b * v
                    r[lead] = 0
            return r, scale
        for lead, (D, rest) in self._by_lead.items():
            c = r[lead]
            if c:
                g = gcd(D, *c)
                if g != D:
                    a = D // g
                    r = [[a * y for y in x] if x else 0 for x in r]
                    scale *= a
                b = [y // g for y in c]
                b0 = None if any(b[1:]) else b[0]
                for idx, v in rest:
                    bv = _product(order, v, b) if b0 is None else [b0 * y for y in v]
                    x = r[idx]
                    x = [y - z for y, z in zip(x, bv)] if x else [-z for z in bv]
                    r[idx] = x if any(x) else 0
                r[lead] = 0
        return r, scale

    def reduce(self, row) -> list:
        """The residue of a row after elimination by every pivot, as
        scalars; it is all zero exactly when the row lies in the span."""
        order = row[0].order
        r, scale = _integer_row(row)
        r, gathered = self._eliminate(r, order)
        return _scalars(order, r, scale * gathered)

    def contains(self, row, order: int) -> bool:
        """Whether a nonempty integer row of the given order, in the layout
        above, lies in the span; it builds no scalar."""
        return not any(self._eliminate(row, order)[0])

    def insert(self, row) -> bool:
        """Reduce a row and keep it as a new pivot if independent; returns
        True when the rank grew."""
        return self.insert_integers(_integer_row(row)[0], row[0].order)

    def insert_integers(self, row, order: int) -> bool:
        """insert for a nonempty integer row of the given order, in the
        layout above, taken as it is."""
        r = self._eliminate(row, order)[0]
        lead = next((k for k, x in enumerate(r) if x), None)
        if lead is None:
            return False
        if euler_phi(order) == 1:
            h = gcd(*r)
            r = [x // h for x in r] if r[lead] > 0 else [-x // h for x in r]
            D = r[lead]
        else:
            if any(r[lead][1:]):
                cofactor = _norm_cofactor(order, r[lead])[0]
                r = [_product(order, x, cofactor) if x else 0 for x in r]
            h = gcd(*[y for x in r if x for y in x])
            if r[lead][0] < 0:
                h = -h
            r = [[y // h for y in x] if x else 0 for x in r]
            D = r[lead][0]
        self._by_lead[lead] = D, tuple((k, r[k]) for k in range(lead + 1, len(r)) if r[k])
        return True


def _integer_row(row) -> tuple:
    """(integer row, scale) of a nonempty row of scalars of one order, in
    _RowReducer's layout: scaled by the lcm of its denominators, each
    entry as its phi(N) integer coefficients, a plain int at phi(N) = 1,
    and 0 for a zero entry at every order."""
    scale = lcm(*[x.den for x in row])
    if len(row[0].num) == 1:
        return [x.num[0] * (scale // x.den) for x in row], scale
    zeros = (0,) * len(row[0].num)
    return [0 if x.num == zeros else x.num if x.den == scale else [c * (scale // x.den) for c in x.num]
            for x in row], scale


def _integer_vector(order: int, r, den: int) -> tuple:
    """(pairs, scale) of a nonzero integer row r in _RowReducer's layout
    over den > 0: the nonzero entries of r with the content they share with
    den divided out, as the (index, element of Z[zeta_N]) pairs that
    _shuffle_into reads, over den divided by it.  These are the scalars of
    r over den (_scalars) scaled by the lcm of their denominators, so r and
    den multiplied by one positive int give the same pairs."""
    if euler_phi(order) == 1:
        g = gcd(den, *r)
        return [(k, x // g) for k, x in enumerate(r) if x], den // g
    g = gcd(den, *[c for x in r if x for c in x])
    return [(k, _ring(order, [c // g for c in x])) for k, x in enumerate(r) if x], den // g


def _scalars(order: int, r, den: int) -> list:
    """The scalars of an integer row in _RowReducer's layout over den."""
    zero = Scalar.zero(order)
    return [_canonical(order, (x,) if type(x) is int else x, den) if x else zero for x in r]


def _insert_mod_p(pivots: list, row: list, p: int) -> bool:
    """_RowReducer.insert over F_p on a row of ints mod p, the pivots kept
    as (lead, nonzero (index, value) pairs) in insertion order."""
    for lead, pivot in pivots:
        c = row[lead]
        if c:
            for idx, v in pivot:
                row[idx] = (row[idx] - c * v) % p
    lead = next((k for k, v in enumerate(row) if v), None)
    if lead is None:
        return False
    inv = pow(row[lead], -1, p)
    pivots.append((lead, tuple((k, v * inv % p) for k, v in enumerate(row) if v)))
    return True


def basis_of_degree(B: BraidingMatrix, alpha, max_terms=None):
    """Pivot words spanning B(V)_alpha plus the rank dim B(V)_alpha.

    Every word of the multidegree is paired once, in lexicographic order,
    and the returned pivots are those of exact elimination with
    first-nonzero pivoting in that order, so they are deterministic.  The
    integer rows, over the one denominator of the degree, are first mapped
    to F_p (scalar._residue_field: sum c_e * z^e goes to sum c_e * rho^e)
    and eliminated there, up to the first one that is dependent mod p.
    The certificate is one-sided: if every row stays independent mod p,
    the m x m minor is nonzero mod p, hence over Q(zeta_N), and the answer
    is every word with rank m, as exact elimination would find it.
    Otherwise all rows are eliminated exactly, since a partial result mod
    p decides nothing.
    """
    alpha = _check_degree(B, alpha)
    m = multinomial(alpha)
    _guard(m * m, max_terms, "elimination at degree {}", alpha)
    one = _ring_units(B.order)[1]
    p, powers = _residue_field(B.order)
    words = _multidegree_words(alpha)
    rows = [_pairings(B, {word: one}, alpha) for word in words]
    pivots = []
    images = ([(x if type(x) is int else sum(map(mul, x, powers))) % p for x in row] for row in rows)
    if all(_insert_mod_p(pivots, image, p) for image in images):
        return words, m
    reducer = _RowReducer()
    return tuple(word for word, row in zip(words, rows) if reducer.insert_integers(row, B.order)), reducer.rank


# -- quantum symmetrizer oracle ---------------------------------------------


def _symmetrizer_rows(B: BraidingMatrix, alpha):
    """The quantum symmetrizer S_d of each word w of degree alpha, in lex
    order, as an integer row in _RowReducer's layout over prod den(q_{w_j
    w_l}) (j < l).  S_d = (S_{d-1} ox id) o (1 + C_{d-1} + ... + C_{d-1}
    ...C_1), C_k swapping the letters a, b at places k, k+1 with the factor
    q_ab, so a stage moves one letter of the first d places to place d, one
    pass per word.  Each pair of places is met once and weighs num(q_ab)
    where its a passes its b, den(q_ab) where it stays before."""
    order, one = B.order, _ring_units(B.order)[1]
    nums = [[_ring(order, e.num) if any(e.num[1:]) else e.num[0] for e in row] for row in B._rows]
    dens = [[e.den for e in row] for row in B._rows]
    index = _word_index(alpha)

    def moved(terms, d):
        for word, coeff in terms.items():
            for j in range(d):
                a, c = word[j], coeff
                for b in word[:j]:
                    if (f := dens[b - 1][a - 1]) != 1:
                        c = c * f
                for b in word[j + 1:d]:
                    if (f := nums[a - 1][b - 1]) != 1:
                        c = c * f
                yield word[:j] + word[j + 1:d] + (a,) + word[d:], c

    for word in index:
        terms = {word: one}
        for d in range(len(word), 1, -1):
            terms = _collect(moved(terms, d))
        row = [0] * len(index)
        for w, c in terms.items():
            row[index[w]] = c if type(c) is int else c.c
        yield row


def symmetrizer_rank_oracle(B: BraidingMatrix, alpha, max_terms=None) -> int:
    """Rank of the quantum symmetrizer restricted to multidegree alpha.

    Independent of the skew-derivation machinery; must agree with
    basis_of_degree's rank.
    """
    alpha = _check_degree(B, alpha)
    _guard(multinomial(alpha) ** 2, max_terms, "symmetrizer at degree {}", alpha)
    reducer = _RowReducer()
    for row in _symmetrizer_rows(B, alpha):
        reducer.insert_integers(row, B.order)
    return reducer.rank
