"""Zeroness and linear structure in the Nichols algebra B(V).

The dual generators y_i act on the tensor algebra as skew derivations

    D_i(x_j * v) = delta_ij * v + q_ij^-1 * x_j * D_i(v)

and a homogeneous element is zero in B(V) exactly when every iterated
derivation down to degree zero vanishes.  Collecting the values of all
d-fold descents gives a faithful vector of pairing values per element
(NicholsVector); exact Gaussian elimination on those vectors yields
dim B(V)_alpha and membership tests.  A quantum-symmetrizer rank
computation provides an independent cross-check of the dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .braiding import BraidingMatrix
from .freealg import FreeElement, _collect, multinomial, words_of_multidegree
from .scalar import Scalar

__all__ = [
    "MAX_TERMS_DEFAULT",
    "GuardrailExceeded",
    "NicholsVector",
    "skew_derivation",
    "pairing_vector",
    "is_zero_in_nichols",
    "basis_of_degree",
    "symmetrizer_rank_oracle",
]

MAX_TERMS_DEFAULT = 10**6


class GuardrailExceeded(RuntimeError):
    """A computation would exceed the configured size cap.

    Exact elimination is cubic; refusing early with the offending sizes
    beats an opaque multi-hour run.
    """

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed} entries, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


def _cap(max_terms) -> int:
    return MAX_TERMS_DEFAULT if max_terms is None else int(max_terms)


def _guard(what: str, needed: int, max_terms) -> int:
    """The effective cap; raises GuardrailExceeded when needed exceeds it."""
    cap = _cap(max_terms)
    if needed > cap:
        raise GuardrailExceeded(what, needed, cap)
    return cap


def _check_degree(B: BraidingMatrix, alpha) -> tuple:
    alpha = tuple(alpha)
    if len(alpha) != B.n or any(a < 0 for a in alpha):
        raise ValueError(f"bad multidegree {alpha} for rank {B.n}")
    return alpha


@dataclass
class NicholsVector:
    """Pairing values of a homogeneous element against all dual words of
    its multidegree; the element is zero in B(V) iff all values vanish.

    values[k] belongs to the k-th dual word of words_of_multidegree(degree).
    """

    degree: tuple
    values: tuple = field(repr=False)

    def is_zero(self) -> bool:
        return not any(self.values)


def _homogeneous_degree(B: BraidingMatrix, u: FreeElement):
    if B.n != u.n or B.order != u.order:
        raise ValueError("braiding matrix and element have different ambients")
    deg = u.degree()  # raises NonHomogeneousError on mixed input
    if deg is None:
        return None
    if sum(deg) == 0:
        raise ValueError("operation needs degree >= 1, got a degree-0 element")
    return deg


def _skew(B: BraidingMatrix, i: int, u: FreeElement) -> FreeElement:
    # single left-to-right pass per word, keeping the running product
    # of q_{i, w_l}^{-1} over the prefix; unit factors are skipped
    inv_row, inv_is_one = B.inverse_row(i)

    def pairs():
        for word, coeff in u.terms.items():
            running = coeff
            for k, letter in enumerate(word):
                if letter == i:
                    yield word[:k] + word[k + 1:], running
                if not inv_is_one[letter - 1]:
                    running = running * inv_row[letter - 1]

    return _collect(u.n, u.order, pairs())


def skew_derivation(B: BraidingMatrix, i: int, u: FreeElement) -> FreeElement:
    """D_i(u): lowers the multidegree by e_i; zero when u contains no x_i."""
    if not 1 <= i <= B.n:
        raise IndexError(f"generator index {i} out of range 1..{B.n}")
    _homogeneous_degree(B, u)
    return _skew(B, i, u)


def _pairings(B: BraidingMatrix, elem: FreeElement, alpha):
    """Pairing values of elem against the dual words of alpha, in
    lexicographic dual-word order: D_{j_1} is applied first, then D_{j_2},
    and so on.  A vanished branch yields its zeros without descending."""
    if not elem.terms:
        yield from repeat(Scalar.zero(B.order), multinomial(alpha))
    elif not any(alpha):
        yield elem.terms.get((), Scalar.zero(B.order))
    else:
        for idx, count in enumerate(alpha):
            if count:
                reduced = alpha[:idx] + (count - 1,) + alpha[idx + 1:]
                yield from _pairings(B, _skew(B, idx + 1, elem), reduced)


def pairing_vector(B: BraidingMatrix, u: FreeElement, max_terms=None) -> NicholsVector:
    """All iterated pairing values of a homogeneous element.

    The value for dual word (j_1, ..., j_d) is the degree-0 scalar
    obtained by applying D_{j_1} first, then D_{j_2}, and so on.
    """
    deg = _homogeneous_degree(B, u)
    if deg is None:
        raise ValueError("the zero element has no well-defined pairing degree")
    _guard(f"pairing vector at degree {deg}", multinomial(deg), max_terms)
    return NicholsVector(deg, tuple(_pairings(B, u, deg)))


def word_pairing_vector(B: BraidingMatrix, word, max_terms=None) -> NicholsVector:
    """pairing_vector of a single monomial, cached per matrix (monomials
    are re-paired constantly by rank, membership, and support scans)."""
    word = tuple(word)
    cache = B._word_pairing_cache
    hit = cache.get(word)
    if hit is None:
        hit = pairing_vector(B, FreeElement.from_word(B.n, B.order, word), max_terms)
        cache[word] = hit
    else:
        # still honor a tighter explicit guardrail
        _guard(f"pairing vector at degree {hit.degree}", multinomial(hit.degree), max_terms)
    return hit


def is_zero_in_nichols(B: BraidingMatrix, u: FreeElement) -> bool:
    """Whether a homogeneous element maps to zero in B(V).

    Depth-first descent with early exit: u = 0 iff D_i(u) = 0 in B(V)
    for every generator i occurring in its degree.
    """
    deg = _homogeneous_degree(B, u)
    return deg is None or not any(_pairings(B, u, deg))


class _RowReducer:
    """Incremental exact row reduction over lists of Scalar (an echelon
    basis).

    Pivot rows are normalized to a leading 1 and indexed by their lead
    column; insertion order is the deterministic pivot choice.
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
        for lead in sorted(self._by_lead):
            c = row[lead]
            if c:
                prow, support = self._by_lead[lead]
                for idx in support:
                    row[idx] = row[idx] - c * prow[idx]
        return row

    def insert(self, row) -> bool:
        """Reduce a row and keep it as a new pivot if independent; returns
        True when the rank grew."""
        row = self.reduce(row)
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            return False
        inv = row[lead].inv()
        row = [v * inv for v in row]
        self._by_lead[lead] = (row, tuple(k for k, v in enumerate(row) if v))
        return True


def basis_of_degree(B: BraidingMatrix, alpha, max_terms=None):
    """Pivot words spanning B(V)_alpha plus the rank dim B(V)_alpha.

    Every word of the multidegree is paired, then eliminated exactly with
    first-nonzero pivoting in lexicographic word order, so the returned
    pivot set is deterministic.
    """
    alpha = _check_degree(B, alpha)
    m = multinomial(alpha)
    cap = _guard(f"elimination at degree {alpha}", m * m, max_terms)
    reducer = _RowReducer()
    pivot_words = []
    for word in words_of_multidegree(alpha):
        nv = word_pairing_vector(B, word, max_terms=cap)
        if reducer.insert(nv.values):
            pivot_words.append(word)
    return tuple(pivot_words), reducer.rank


# -- quantum symmetrizer oracle ---------------------------------------------


def _apply_braid_transposition(B: BraidingMatrix, terms: dict, k: int) -> dict:
    """C_k on a word combination: swap letters k, k+1 (1-based) and scale
    by q_{ab} where (a, b) were the letters in positions (k, k+1)."""
    out = {}
    for word, coeff in terms.items():
        a, b = word[k - 1], word[k]
        swapped = word[: k - 1] + (b, a) + word[k + 1:]
        c = coeff * B.entry(a, b)
        acc = out.get(swapped)
        acc = c if acc is None else acc + c
        if acc:
            out[swapped] = acc
        elif swapped in out:
            del out[swapped]
    return out


def _symmetrize(B: BraidingMatrix, terms: dict, d: int) -> dict:
    """Quantum symmetrizer S_d on the first d tensor positions:
    S_d = (S_{d-1} ox id) o (1 + C_{d-1} + C_{d-1}C_{d-2} + ... + C_{d-1}...C_1)."""
    if d <= 1:
        return terms
    acc = dict(terms)
    for j in range(d - 1, 0, -1):
        t = terms
        for k in range(j, d):
            t = _apply_braid_transposition(B, t, k)
        for word, coeff in t.items():
            cur = acc.get(word)
            cur = coeff if cur is None else cur + coeff
            if cur:
                acc[word] = cur
            elif word in acc:
                del acc[word]
    return _symmetrize(B, acc, d - 1)


def symmetrizer_rank_oracle(B: BraidingMatrix, alpha, max_terms=None) -> int:
    """Rank of the quantum symmetrizer restricted to multidegree alpha.

    Independent of the skew-derivation machinery; must agree with
    basis_of_degree's rank.
    """
    alpha = _check_degree(B, alpha)
    d = sum(alpha)
    if d == 0:
        raise ValueError("degree-0 component is the base field; rank query needs degree >= 1")
    m = multinomial(alpha)
    _guard(f"symmetrizer at degree {alpha}", m * m, max_terms)
    words = list(words_of_multidegree(alpha))
    one = Scalar.one(B.order)
    zero = Scalar.zero(B.order)
    reducer = _RowReducer()
    for word in words:
        image = _symmetrize(B, {word: one}, d)
        reducer.insert([image.get(w, zero) for w in words])
    return reducer.rank
