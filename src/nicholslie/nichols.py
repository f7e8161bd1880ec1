"""Zeroness and linear structure in the Nichols algebra B(V).

The dual generators y_i act on the tensor algebra as skew derivations

    D_i(x_j * v) = delta_ij * v + q_ij^-1 * x_j * D_i(v)

and a homogeneous element is zero in B(V) exactly when every iterated
derivation down to degree zero vanishes.  Its pairing vector f
(NicholsVector) holds those values: entry k belongs to the k-th dual
word j of its degree in lexicographic order, and is the scalar left by
applying D_{j_1} first, then D_{j_2}, and so on.  For an element, the
descent (_pairings) fills it, applying D_i down to three letters and
reading the memoized pairing rows of the words left.  For a product u*v,
u of degree beta, the quantum shuffle (M. Rosso, Invent. Math. 133,
1998) fills it from f_u and f_v alone, summing over the position sets S
of j that spell a word of degree beta:

    f_uv(j) = sum_S f_u(j_S) * f_v(j_not_S) * prod q_{j_k, j_l}^-1
              (over k not in S, l in S, l > k),

and lie pairs each bracket [b, c] = c*b - p*b*c of a split (beta, gamma)
through one table that folds both products' interleaving weights, of at
most m(alpha) * min(prod C(alpha_i, beta_i), m(beta) * m(gamma)) entries,
m counting the words of a degree (_ShuffleTables.bracket, _shuffle_into);
a split whose table cancels entirely brackets to zero and is not paired.
The tables are built from the shuffles of suffix pairs of words, which
depend on B alone and are memoized per matrix.  Exact elimination on the
vectors gives dim B(V)_alpha and membership, cross-checked by the rank
of a quantum symmetrizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .braiding import BraidingMatrix
from .freealg import (FreeElement, _collect, _multidegree_words, multinomial, word_degree,
                      words_of_multidegree)
from .scalar import GuardrailExceeded, Scalar, _cached_one

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


def _guard(needed: int, max_terms, what: str, *args) -> None:
    """GuardrailExceeded if needed exceeds the cap (ValueError unless an int >= 0); entry points only.
    Its text is what.format(*args), formatted only on a refusal: a cached
    Lie span is looked up through here on every call."""
    cap = MAX_TERMS_DEFAULT if max_terms is None else max_terms
    if type(cap) is not int:  # not isinstance(): a bool is no cap
        raise ValueError(f"max_terms must be an int >= 0, got {cap!r}")
    if cap < 0:
        raise ValueError(f"max_terms must be >= 0, got {cap}")
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


def _skew(B: BraidingMatrix, i: int, terms: dict) -> dict:
    # D_i on a word -> scalar map: one pass per word, keeping the running
    # product of q_{i, w_l}^{-1} over the prefix; unit factors are skipped.
    # The accumulation is inlined: this is the innermost loop of every descent.
    inv_row, one = B.inverse_row(i), _cached_one(B.order)
    out = {}
    for word, coeff in terms.items():
        running = coeff
        for k, letter in enumerate(word):
            if letter == i:
                reduced = word[:k] + word[k + 1:]
                acc = out.get(reduced)
                acc = running if acc is None else acc + running
                if acc:
                    out[reduced] = acc
                elif reduced in out:
                    del out[reduced]
            if (f := inv_row[letter - 1]) is not one:
                running = running * f
    return out


def skew_derivation(B: BraidingMatrix, i: int, u: FreeElement) -> FreeElement:
    """D_i(u): lowers the multidegree by e_i; zero when u contains no x_i."""
    word_degree((i,), B.n)  # the letter check
    _homogeneous_degree(B, u)
    return FreeElement._of(u.n, u.order, _skew(B, i, u.terms))


def _pairing_row(B: BraidingMatrix, word) -> tuple:
    """The pairing vector of a monomial of at most SHORT_ROW_LETTERS
    letters, as its nonzero (index, value) pairs; memoized per matrix.
    Its block for dual words starting with i is D_i(word) paired with the
    rows of the shorter words."""
    rows = B._pairing_row_cache
    row = rows.get(word)
    if row is None:
        if len(word) == 1:
            row = ((0, Scalar.one(B.order)),)
        else:
            values = _derivations(B, {word: Scalar.one(B.order)}, word_degree(word, B.n))
            row = tuple((k, v) for k, v in enumerate(values) if v)
        rows[word] = row
    return row


def _pairings(B: BraidingMatrix, terms: dict, alpha):
    """The pairing vector of a word -> scalar map of degree alpha, by the
    descent.  A vanished branch yields its zeros without descending; at
    most SHORT_ROW_LETTERS letters from the bottom, it ends in the
    memoized pairing rows of its words."""
    if not terms:
        yield from repeat(Scalar.zero(B.order), multinomial(alpha))
    elif sum(alpha) > SHORT_ROW_LETTERS:
        yield from _derivations(B, terms, alpha)
    else:
        values = [None] * multinomial(alpha)
        for word, coeff in terms.items():
            for idx, v in _pairing_row(B, word):
                v = coeff * v
                acc = values[idx]
                values[idx] = v if acc is None else acc + v
        zero = Scalar.zero(B.order)
        yield from (zero if v is None else v for v in values)


def _derivations(B: BraidingMatrix, terms: dict, alpha):
    """The pairings of a word -> scalar map, one block per generator i in
    alpha in ascending order: its D_i paired against the dual words after i."""
    for idx, count in enumerate(alpha):
        if count:
            reduced = alpha[:idx] + (count - 1,) + alpha[idx + 1:]
            yield from _pairings(B, _skew(B, idx + 1, terms), reduced)


def _vanishes(B: BraidingMatrix, terms: dict, alpha) -> bool:
    """Whether a word -> scalar map of degree alpha is zero in B(V): the
    descent of _pairings, ending at the first nonzero value and at once
    on a vanished branch, whose zeros it never walks."""
    if not terms:
        return True
    if sum(alpha) <= SHORT_ROW_LETTERS:
        return not any(_pairings(B, terms, alpha))
    return all(_vanishes(B, _skew(B, idx + 1, terms), alpha[:idx] + (count - 1,) + alpha[idx + 1:])
               for idx, count in enumerate(alpha) if count)


class _ShuffleTables:
    """Pairing tables of the brackets of degree alpha.  bracket(beta, gamma,
    p) is the table M of [u, v] = v*u - p*u*v over the i-th word u of beta
    and the j-th word v of gamma: M[i][j] lists the (k, w), w != 0, where w
    sums the weights prod q_{x,y}^-1 (x of the second factor placed before
    y of the first) of the interleavings of v*u that spell the k-th dual
    word of alpha, minus p times those of u*v.  It is None when every entry
    cancels, and then every bracket of that split is zero in B(V).  A
    table is built once per split and not kept.  It is read from the
    shuffles of suffix pairs, which are never enumerated (with repeated
    letters there are exponentially many) and, like the factors, depend on
    B and the words alone, so both memos are kept on B (B._shuffle_memos())
    and shared by every alpha; they hold words and scalars, never B, so
    they make no reference cycle."""

    def __init__(self, B: BraidingMatrix, alpha: tuple):
        self.B, self.one = B, Scalar.one(B.order)
        self.index = {word: k for k, word in enumerate(_multidegree_words(alpha))}
        self.memo, self.factors = B._shuffle_memos()

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


def _shuffle_into(acc: list, table, fu, fv, one: Scalar) -> None:
    """Add into acc (None marks an untouched entry) the pairing vector the
    table gives u and v, [u, v] for a _ShuffleTables.bracket table: the sum
    of f_u(i) * f_v(j) * w over the (k, w) of table[i][j], from the nonzero
    (index, value) pairs of f_u and f_v; unit weights are not multiplied."""
    for i, x in fu:
        row = table[i]
        for j, y in fv:
            xy = x * y
            for k, w in row[j]:
                w = xy if w is one else xy * w
                prev = acc[k]
                acc[k] = w if prev is None else prev + w


def pairing_vector(B: BraidingMatrix, u: FreeElement, max_terms=None) -> NicholsVector:
    """All iterated pairing values of a homogeneous element, by the descent."""
    deg = _homogeneous_degree(B, u)
    if deg is None:
        raise ValueError("the zero element has no well-defined pairing degree")
    _guard(multinomial(deg), max_terms, "pairing vector at degree {}", deg)
    return NicholsVector(deg, tuple(_pairings(B, u.terms, deg)))


def word_pairing_vector(B: BraidingMatrix, word, max_terms=None) -> NicholsVector:
    """pairing_vector of a single monomial."""
    return pairing_vector(B, FreeElement.from_word(B.n, B.order, word), max_terms)


def is_zero_in_nichols(B: BraidingMatrix, u: FreeElement) -> bool:
    """Whether a homogeneous element maps to zero in B(V).

    Depth-first descent with early exit: u = 0 iff D_i(u) = 0 in B(V)
    for every generator i occurring in its degree.
    """
    deg = _homogeneous_degree(B, u)
    return deg is None or _vanishes(B, u.terms, deg)


class _RowReducer:
    """Incremental exact row reduction over lists of Scalar (an echelon basis).

    Each pivot is kept as the nonzero (index, value) pairs of its row,
    normalized to a leading 1, and indexed by its lead column; insertion
    order is the deterministic pivot choice, and reduce walks them in it
    (each is zero at the leads inserted before it).
    """

    def __init__(self):
        self._by_lead = {}

    @property
    def rank(self) -> int:
        return len(self._by_lead)

    def reduce(self, row) -> list:
        """The residue of a row after elimination by every pivot; it is
        all zero exactly when the row lies in the span."""
        row = list(row)
        for lead, pivot in self._by_lead.items():
            c = row[lead]
            if c:
                for idx, v in pivot:
                    row[idx] = row[idx] - c * v
        return row

    def insert(self, row) -> bool:
        """Reduce a row and keep it as a new pivot if independent; returns
        True when the rank grew."""
        row = self.reduce(row)
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            return False
        inv = row[lead].inv()
        self._by_lead[lead] = tuple((k, v * inv) for k, v in enumerate(row) if v)
        return True


def basis_of_degree(B: BraidingMatrix, alpha, max_terms=None):
    """Pivot words spanning B(V)_alpha plus the rank dim B(V)_alpha.

    Every word of the multidegree is paired, then eliminated exactly with
    first-nonzero pivoting in lexicographic word order, so the returned
    pivot set is deterministic.
    """
    alpha = _check_degree(B, alpha)
    m = multinomial(alpha)
    _guard(m * m, max_terms, "elimination at degree {}", alpha)
    one = Scalar.one(B.order)
    reducer = _RowReducer()
    pivot_words = []
    for word in words_of_multidegree(alpha):
        if reducer.insert(_pairings(B, {word: one}, alpha)):
            pivot_words.append(word)
    return tuple(pivot_words), reducer.rank


# -- quantum symmetrizer oracle ---------------------------------------------


def _symmetrize(B: BraidingMatrix, terms: dict, d: int) -> dict:
    """Quantum symmetrizer S_d on the first d places of a word -> scalar map:
    S_d = (S_{d-1} ox id) o (1 + C_{d-1} + C_{d-1}C_{d-2} + ... + C_{d-1}...C_1),
    C_k swapping the letters a, b at places k, k+1 with the factor q_ab.  So
    C_{d-1}...C_j moves letter w_j to place d with the factor prod q_{w_j w_l}
    over j < l <= d, in increasing l: a bijection on words, one pass per word."""
    if d <= 1:
        return terms

    def moved():
        for j in range(d - 1, 0, -1):
            for word, coeff in terms.items():
                a = word[j - 1]
                for b in word[j:d]:
                    coeff = coeff * B.entry(a, b)
                yield word[:j - 1] + word[j:d] + (a,) + word[d:], coeff

    return _symmetrize(B, _collect(moved(), dict(terms)), d - 1)


def symmetrizer_rank_oracle(B: BraidingMatrix, alpha, max_terms=None) -> int:
    """Rank of the quantum symmetrizer restricted to multidegree alpha.

    Independent of the skew-derivation machinery; must agree with
    basis_of_degree's rank.
    """
    alpha = _check_degree(B, alpha)
    d = sum(alpha)
    m = multinomial(alpha)
    _guard(m * m, max_terms, "symmetrizer at degree {}", alpha)
    words = list(words_of_multidegree(alpha))
    one = Scalar.one(B.order)
    zero = Scalar.zero(B.order)
    reducer = _RowReducer()
    for word in words:
        image = _symmetrize(B, {word: one}, d)
        reducer.insert([image.get(w, zero) for w in words])
    return reducer.rank
