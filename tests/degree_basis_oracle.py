"""Reference elimination for nichols.basis_of_degree: the engine's former
word-by-word loop, which pairs every word of the degree in lexicographic
order and inserts each row into one exact Scalar row reducer
(scalar_reducer_oracle), with no residue map and no early answer.

It is kept as the pivot-and-rank oracle for basis_of_degree, which first
eliminates mod a prime p = 1 (mod N) and answers every word at once when
all rows stay independent there.  It shares the pairing descent with the
engine, but neither the certificate nor the integer row reducer.
"""

from nicholslie.freealg import words_of_multidegree
from nicholslie.nichols import _pairings
from nicholslie.scalar import Scalar
from scalar_reducer_oracle import ScalarRowReducer


def oracle_basis_of_degree(B, alpha):
    """(pivot words, rank) of exact lex-greedy elimination at alpha."""
    alpha = tuple(alpha)
    one = Scalar.one(B.order)
    reducer = ScalarRowReducer()
    pivot_words = []
    for word in words_of_multidegree(alpha):
        if reducer.insert(_pairings(B, {word: one}, alpha)):
            pivot_words.append(word)
    return tuple(pivot_words), reducer.rank
