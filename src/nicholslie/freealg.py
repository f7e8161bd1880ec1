"""The free (tensor) algebra on generators x_1..x_n with its Z^n grading.

Words are tuples of 1-based generator indices; an element is a finite
map word -> scalar with zero coefficients never stored, so map equality
is element equality.  The two bracket operations live here:

    braided:  [x, y]  = y*x - chi(deg y, deg x) * x*y
    minus:    [x, y]- = y*x - x*y

together with full bracketings of a word (binary trees whose leaves bind
positionally to the word's letters).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .braiding import BraidingMatrix
from .scalar import FieldMismatchError, Scalar

__all__ = [
    "NonHomogeneousError",
    "FreeElement",
    "word_degree",
    "words_of_multidegree",
    "words_of_total_degree",
    "multinomial",
    "catalan",
    "braided_bracket",
    "minus_bracket",
    "enumerate_bracketings",
    "apply_bracketing",
    "format_bracketing",
    "BRAIDED",
    "MINUS",
]

BRAIDED = "braided"
MINUS = "minus"


class NonHomogeneousError(ValueError):
    """An operation needing a single multidegree got a mixed element."""


def word_degree(word, n: int) -> tuple:
    """Multidegree of a word as an n-tuple of letter counts."""
    deg = [0] * n
    for letter in word:
        deg[letter - 1] += 1
    return tuple(deg)


@lru_cache(maxsize=4096)
def _multidegree_words(alpha):
    total = sum(alpha)
    remaining = list(alpha)
    prefix = []
    out = []

    def rec():
        if len(prefix) == total:
            out.append(tuple(prefix))
            return
        for i, count in enumerate(remaining):
            if count:
                remaining[i] -= 1
                prefix.append(i + 1)
                rec()
                prefix.pop()
                remaining[i] += 1

    rec()
    return tuple(out)


def words_of_multidegree(alpha):
    """All words with the given multidegree, in lexicographic order."""
    return iter(_multidegree_words(tuple(alpha)))


def words_of_total_degree(n: int, d: int):
    """All words of length d over 1..n, in lexicographic order."""
    if d == 0:
        yield ()
        return
    word = [1] * d
    while True:
        yield tuple(word)
        k = d - 1
        while k >= 0 and word[k] == n:
            word[k] = 1
            k -= 1
        if k < 0:
            return
        word[k] += 1


def multinomial(alpha) -> int:
    """Number of words of the given multidegree."""
    total = sum(alpha)
    out = math.factorial(total)
    for a in alpha:
        out //= math.factorial(a)
    return out


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _collect(n: int, order: int, pairs) -> "FreeElement":
    """Sum (word, coeff) pairs into an element, dropping cancelled words."""
    out = {}
    for word, coeff in pairs:
        acc = out.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            out[word] = acc
        elif word in out:
            del out[word]
    elem = FreeElement(n, order)
    elem.terms = out
    return elem


class FreeElement:
    """Finite scalar combination of words; immutable in spirit (callers must
    not mutate .terms)."""

    __slots__ = ("n", "order", "terms")

    def __init__(self, n: int, order: int, terms=None):
        self.n = n
        self.order = order
        self.terms = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    self.terms[word] = coeff

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, order: int) -> "FreeElement":
        return cls(n, order)

    @classmethod
    def unit(cls, n: int, order: int) -> "FreeElement":
        return cls(n, order, {(): Scalar.one(order)})

    @classmethod
    def generator(cls, n: int, order: int, i: int) -> "FreeElement":
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} out of range 1..{n}")
        return cls(n, order, {(i,): Scalar.one(order)})

    @classmethod
    def from_word(cls, n: int, order: int, word, coeff=1) -> "FreeElement":
        word = tuple(word)
        for letter in word:
            if not 1 <= letter <= n:
                raise ValueError(f"letter {letter} out of range 1..{n}")
        if isinstance(coeff, (int, Fraction)):
            coeff = Scalar.from_rational(order, coeff)
        return cls(n, order, {word: coeff})

    def _check_ambient(self, other: "FreeElement"):
        if self.n != other.n or self.order != other.order:
            raise FieldMismatchError(
                f"ambient mismatch: (n={self.n}, order={self.order}) vs "
                f"(n={other.n}, order={other.order})"
            )

    # -- vector space structure -------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        self._check_ambient(other)
        return _collect(self.n, self.order, chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = FreeElement(self.n, self.order)
        out.terms = {w: -c for w, c in self.terms.items()}
        return out

    def scale(self, coeff) -> "FreeElement":
        if isinstance(coeff, (int, Fraction)):
            coeff = Scalar.from_rational(self.order, coeff)
        if not coeff:
            return FreeElement.zero(self.n, self.order)
        out = FreeElement(self.n, self.order)
        out.terms = {w: c * coeff for w, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, FreeElement):
            return NotImplemented
        self._check_ambient(other)
        return _collect(self.n, self.order, (
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        ))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    # -- grading ----------------------------------------------------------

    def degree(self):
        """Common multidegree of all words; None for the zero element.

        Raises NonHomogeneousError when words of different multidegree mix.
        """
        deg = None
        for word in self.terms:
            d = word_degree(word, self.n)
            if deg is None:
                deg = d
            elif d != deg:
                raise NonHomogeneousError(
                    f"element mixes multidegrees {deg} and {d}"
                )
        return deg

    # -- equality / display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.order == other.order
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def canonical_key(self):
        """Hashable canonical form (used to collapse duplicate bracketings)."""
        return tuple(sorted((w, self.terms[w].coeffs) for w in self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            coeff = str(self.terms[word])
            if coeff.startswith("-") or " + " in coeff or " - " in coeff:
                coeff = f"({coeff})"
            if word:
                parts.append(f"{coeff} * " + " ".join(f"x{i}" for i in word))
            else:
                parts.append(coeff)
        return " + ".join(parts)

    def __repr__(self):
        return f"FreeElement({self!s})"


def braided_bracket(B: BraidingMatrix, x: FreeElement, y: FreeElement) -> FreeElement:
    """[x, y] = y*x - p_yx * x*y with p_yx = chi(deg y, deg x).

    Both arguments must be homogeneous (the scalar p_yx is undefined
    otherwise); a zero operand gives the zero bracket.
    """
    x._check_ambient(y)
    if B.n != x.n or B.order != x.order:
        raise FieldMismatchError("braiding matrix and elements have different ambients")
    dx = x.degree()
    dy = y.degree()
    if dx is None or dy is None:
        return FreeElement.zero(x.n, x.order)
    return _commutator(x, y, B.chi(dy, dx))


def minus_bracket(x: FreeElement, y: FreeElement) -> FreeElement:
    """[x, y]- = y*x - x*y (the classical commutator, reversed)."""
    x._check_ambient(y)
    return _commutator(x, y, Scalar.one(x.order))


def _commutator(x: FreeElement, y: FreeElement, p: Scalar) -> FreeElement:
    """y*x - p * x*y, accumulated in one pass over the term pairs."""
    xs, ys = x.terms.items(), y.terms.items()
    scaled = [(wx, -(cx * p)) for wx, cx in xs]  # -p folded into x once
    return _collect(x.n, x.order, chain(
        ((wy + wx, cy * cx) for wy, cy in ys for wx, cx in xs),
        ((wx + wy, cx * cy) for wx, cx in scaled for wy, cy in ys),
    ))


# -- full bracketings ------------------------------------------------------
#
# A bracketing of m letters is a full binary tree with m leaves; leaves
# carry no labels and bind left-to-right to the letters of a word.  A
# leaf is None, an internal node a (left, right) pair.


@lru_cache(maxsize=None)
def enumerate_bracketings(m: int):
    """All binary trees with m leaves, deterministically ordered; there are
    catalan(m - 1) of them."""
    if m < 1:
        raise ValueError(f"a bracketing needs at least one leaf, got {m}")
    if m == 1:
        return (None,)
    out = []
    for k in range(1, m):
        for left in enumerate_bracketings(k):
            for right in enumerate_bracketings(m - k):
                out.append((left, right))
    return tuple(out)


def _check_bracket_kind(kind: str) -> str:
    if kind not in (BRAIDED, MINUS):
        raise ValueError(f"bracket kind must be {BRAIDED!r} or {MINUS!r}, got {kind!r}")
    return kind


def _fold_bracketing(tree, word, leaf, node):
    """Evaluate a bracketing bottom-up: leaf(letter) at each leaf and
    node(left, right) at each internal node, binding leaves to the word's
    letters in one left-to-right pass."""
    letters = iter(word)

    def rec(t):
        if t is None:
            letter = next(letters, None)
            if letter is None:
                raise ValueError(f"tree has more leaves than the word's {len(word)} letters")
            return leaf(letter)
        return node(rec(t[0]), rec(t[1]))

    out = rec(tree)
    if next(letters, None) is not None:
        raise ValueError(f"tree has fewer leaves than the word's {len(word)} letters")
    return out


def apply_bracketing(B: BraidingMatrix, tree, word, kind: str) -> FreeElement:
    """Evaluate a full bracketing of a word with the chosen bracket."""
    _check_bracket_kind(kind)
    word = tuple(word)
    if not word:
        raise ValueError("cannot bracket the empty word")

    def node(left, right):
        return braided_bracket(B, left, right) if kind == BRAIDED else minus_bracket(left, right)

    return _fold_bracketing(tree, word, lambda i: FreeElement.generator(B.n, B.order, i), node)


def format_bracketing(tree, word) -> str:
    """Render a (tree, word) pair as a bracket expression, e.g. [x1,[x2,x3]]."""
    return _fold_bracketing(
        tree, tuple(word), lambda i: f"x{i}", lambda left, right: f"[{left},{right}]"
    )
