"""Reference pairing descent: the engine's former nichols._pairings with
its own copy of the D_i step.

It applies the skew derivation D_{j_1}, then D_{j_2}, ... down to degree
zero for every dual word, with no memoized rows at the bottom, and is
kept as a test oracle for the short-row descent in nicholslie.nichols.
It shares no pairing code with the engine, only its scalar and
free-algebra types.
"""

from itertools import repeat

from nicholslie.freealg import FreeElement, multinomial
from nicholslie.scalar import Scalar


def oracle_skew(B, i, u):
    """D_i(u): for each occurrence of x_i in a word, the word without it,
    times q_{i,w_l}^-1 over the letters w_l before it."""
    zero = Scalar.zero(u.order)
    out = {}
    for word, coeff in u.terms.items():
        running = coeff
        for k, letter in enumerate(word):
            if letter == i:
                reduced = word[:k] + word[k + 1:]
                out[reduced] = out.get(reduced, zero) + running
            running = running * B.entry(i, letter).inv()
    return FreeElement(u.n, u.order, out)  # drops the coefficients that cancelled


def oracle_pairings(B, elem, alpha):
    """Pairing values of elem against the dual words of alpha, in
    lexicographic dual-word order.  A vanished branch yields its zeros
    without descending."""
    if not elem.terms:
        yield from repeat(Scalar.zero(B.order), multinomial(alpha))
    elif not any(alpha):
        yield elem.terms.get((), Scalar.zero(B.order))
    else:
        for idx, count in enumerate(alpha):
            if count:
                reduced = alpha[:idx] + (count - 1,) + alpha[idx + 1:]
                yield from oracle_pairings(B, oracle_skew(B, idx + 1, elem), reduced)
