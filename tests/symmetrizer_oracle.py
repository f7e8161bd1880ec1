"""Reference quantum symmetrizer: the engine's former nichols._symmetrize,
on word -> scalar maps.

It is kept as the oracle for nichols._symmetrizer_rows, which builds the
same rows fraction-free on integers over Z[zeta_N], and shares no code
with it but the scalar and free-algebra types.
"""

from nicholslie.freealg import _collect, words_of_multidegree
from nicholslie.scalar import Scalar


def oracle_symmetrize(B, terms, d):
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

    return oracle_symmetrize(B, _collect(moved(), dict(terms)), d - 1)


def oracle_symmetrizer_row(B, word):
    """S_d of one word, as scalars in the lexicographic order of the words
    of its degree."""
    image = oracle_symmetrize(B, {tuple(word): Scalar.one(B.order)}, len(word))
    zero = Scalar.zero(B.order)
    alpha = tuple(word.count(i) for i in range(1, B.n + 1))
    return [image.get(w, zero) for w in words_of_multidegree(alpha)]
