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
from functools import lru_cache
from itertools import chain, product

from .braiding import BraidingMatrix
from .scalar import FieldMismatchError, Scalar, _lift

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
    """Multidegree of a word as n letter counts: the library's one letter check (ints only)."""
    deg = [0] * n
    for letter in word:
        if type(letter) is not int or not 0 < letter <= n:
            raise ValueError(f"letter {letter!r} out of range 1..{n}")
        deg[letter - 1] += 1
    return tuple(deg)


@lru_cache(maxsize=4096)
def _multidegree_words(alpha):
    if not any(alpha):
        return ((),)
    return tuple(
        (i + 1,) + rest
        for i, count in enumerate(alpha) if count
        for rest in _multidegree_words(alpha[:i] + (count - 1,) + alpha[i + 1:])
    )


@lru_cache(maxsize=4096)
def _word_index(alpha) -> dict:
    """{word: its place in _multidegree_words(alpha)}, read-only."""
    return {word: k for k, word in enumerate(_multidegree_words(alpha))}


def words_of_multidegree(alpha):
    """All words with the given multidegree, in lexicographic order."""
    return iter(_multidegree_words(tuple(alpha)))


def words_of_total_degree(n: int, d: int):
    """All words of length d over 1..n, in lexicographic order."""
    return product(range(1, n + 1), repeat=d)


def multinomial(alpha) -> int:
    """Number of words of the given multidegree."""
    total = sum(alpha)
    out = math.factorial(total)
    for a in alpha:
        out //= math.factorial(a)
    return out


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _collect(pairs, out=None) -> dict:
    """Sum (word, coeff) pairs into a word -> scalar map (out when given),
    dropping cancelled words: the one accumulate loop; _skew inlines a copy."""
    if out is None:
        out = {}
    for word, coeff in pairs:
        acc = out.get(word)
        acc = coeff if acc is None else acc + coeff
        if acc:
            out[word] = acc
        elif word in out:
            del out[word]
    return out


class FreeElement:
    """Finite scalar combination of words; immutable in spirit (callers must
    not mutate .terms)."""

    __slots__ = ("n", "order", "terms")

    def __init__(self, n: int, order: int, terms=None):
        """The one checked entry: letters go through word_degree, and each
        coefficient is lifted as a Scalar lifts an operand, anything but a
        Scalar, int or Fraction being a TypeError; zeros are dropped."""
        self.n = n
        self.order = order
        self.terms = {}
        for word, coeff in (terms or {}).items():
            word_degree(word, n)
            scalar = _lift(order, coeff)
            if scalar is None:
                raise TypeError(f"coefficients must be Scalar, int or Fraction, "
                                f"got {type(coeff).__name__} {coeff!r}")
            if scalar:
                self.terms[word] = scalar

    # -- constructors ---------------------------------------------------

    @classmethod
    def _of(cls, n: int, order: int, terms: dict) -> "FreeElement":
        """Wrap a word -> scalar map the library built, uncopied and unchecked."""
        elem = cls(n, order)
        elem.terms = terms
        return elem

    @classmethod
    def zero(cls, n: int, order: int) -> "FreeElement":
        return cls(n, order)

    @classmethod
    def unit(cls, n: int, order: int) -> "FreeElement":
        return cls(n, order, {(): Scalar.one(order)})

    @classmethod
    def generator(cls, n: int, order: int, i: int) -> "FreeElement":
        return cls.from_word(n, order, (i,))

    @classmethod
    def from_word(cls, n: int, order: int, word, coeff=1) -> "FreeElement":
        return cls(n, order, {tuple(word): coeff})

    def _check_ambient(self, other: "FreeElement"):
        if self.n != other.n or self.order != other.order:
            raise FieldMismatchError(
                f"ambient mismatch: (n={self.n}, order={self.order}) vs "
                f"(n={other.n}, order={other.order})"
            )

    def _check_matrix(self, B: BraidingMatrix):
        if B.n != self.n or B.order != self.order:
            raise FieldMismatchError("braiding matrix and element have different ambients")

    # -- vector space structure -------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        self._check_ambient(other)
        terms = _collect(chain(self.terms.items(), other.terms.items()))
        return FreeElement._of(self.n, self.order, terms)

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FreeElement._of(self.n, self.order, {w: -c for w, c in self.terms.items()})

    def scale(self, coeff) -> "FreeElement":
        """coeff * self, the coefficient lifted by the constructor."""
        return FreeElement(self.n, self.order, {(): coeff}) * self

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            return self.scale(other)
        self._check_ambient(other)
        return FreeElement._of(self.n, self.order, _collect(
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        ))

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
    x._check_matrix(B)
    dx = x.degree()
    dy = y.degree()
    if dx is None or dy is None:
        return FreeElement.zero(x.n, x.order)
    return FreeElement._of(x.n, x.order, _commutator(x.terms, y.terms, B.chi(dy, dx)))


def minus_bracket(x: FreeElement, y: FreeElement) -> FreeElement:
    """[x, y]- = y*x - x*y (the classical commutator, reversed)."""
    x._check_ambient(y)
    return FreeElement._of(x.n, x.order, _commutator(x.terms, y.terms, Scalar.one(x.order)))


def _commutator(x: dict, y: dict, p) -> dict:
    """y*x - p * x*y on word -> coefficient maps, in one pass over the term
    pairs: Scalars with p a Scalar, or ints with p = 1 (the classical
    bracket of int maps, whose coefficients stay in Z)."""
    xs, ys = x.items(), y.items()
    scaled = [(wx, -(cx * p)) for wx, cx in xs]  # -p folded into x once
    return _collect(chain(
        ((wy + wx, cy * cx) for wy, cy in ys for wx, cx in xs),
        ((wx + wy, cx * cy) for wx, cx in scaled for wy, cy in ys),
    ))


# -- full bracketings ------------------------------------------------------
#
# A bracketing of m letters is a full binary tree with m leaves; leaves
# carry no labels and bind left-to-right to the letters of a word.  A
# leaf is None, an internal node a (left, right) pair.


def enumerate_bracketings(m: int):
    """All binary trees with m leaves, deterministically ordered; there are
    catalan(m - 1) of them."""
    if m < 1:
        raise ValueError(f"a bracketing needs at least one leaf, got {m}")
    if m == 1:
        return (None,)
    out = []
    for k in range(1, m):
        rights = enumerate_bracketings(m - k)
        out.extend((left, right) for left in enumerate_bracketings(k) for right in rights)
    return tuple(out)


def _check_choice(value, allowed, noun: str):
    """ValueError unless value is one of the two names in allowed."""
    if value not in allowed:
        raise ValueError(f"{noun} must be {allowed[0]!r} or {allowed[1]!r}, got {value!r}")


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


def _bracketing_terms(B: BraidingMatrix, tree, word: tuple, kind: str) -> dict:
    """Word -> coefficient map of a bracketing of a checked word: _commutator
    at each node, with p = 1 (minus) or chi(deg y, deg x) read off one
    word of each side (braided; a zero side gives zero).  The leaves are
    int 1 for minus, so its map is word -> int, and Scalar 1 for braided."""
    one = 1 if kind == MINUS else Scalar.one(B.order)

    def braided(x, y):
        if not x or not y:
            return {}
        p = B.chi(word_degree(next(iter(y)), B.n), word_degree(next(iter(x)), B.n))
        return _commutator(x, y, p)

    node = braided if kind == BRAIDED else lambda x, y: _commutator(x, y, one)
    return _fold_bracketing(tree, word, lambda letter: {(letter,): one}, node)


def apply_bracketing(B: BraidingMatrix, tree, word, kind: str) -> FreeElement:
    """Evaluate a full bracketing of a word with the chosen bracket; the
    checked constructor lifts a minus bracketing's ints to Scalars."""
    _check_choice(kind, (BRAIDED, MINUS), "bracket kind")
    word = tuple(word)
    word_degree(word, B.n)
    return FreeElement(B.n, B.order, _bracketing_terms(B, tree, word, kind))


def format_bracketing(tree, word) -> str:
    """Render a (tree, word) pair as a bracket expression, e.g. [x1,[x2,x3]]."""
    return _fold_bracketing(
        tree, tuple(word), lambda i: f"x{i}", lambda left, right: f"[{left},{right}]"
    )
