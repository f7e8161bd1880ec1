"""Reference elimination for nichols.basis_of_degree: the engine's former
word-by-word loop, which pairs every word of the degree in lexicographic
order and inserts each row into one exact _RowReducer, with no residue
map and no early answer.

It is kept as the pivot-and-rank oracle for basis_of_degree, which first
eliminates mod a prime p = 1 (mod N) and answers every word at once when
all rows stay independent there.  It shares the pairing descent and the
exact reducer with the engine, only not the certificate.
"""

from nicholslie.freealg import words_of_multidegree
from nicholslie.nichols import _RowReducer, _pairings
from nicholslie.scalar import Scalar


def oracle_basis_of_degree(B, alpha):
    """(pivot words, rank) of exact lex-greedy elimination at alpha."""
    alpha = tuple(alpha)
    one = Scalar.one(B.order)
    reducer = _RowReducer()
    pivot_words = []
    for word in words_of_multidegree(alpha):
        if reducer.insert(_pairings(B, {word: one}, alpha)):
            pivot_words.append(word)
    return tuple(pivot_words), reducer.rank
