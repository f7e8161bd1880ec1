"""Free algebra: product, both brackets, bracketing trees, identities."""

import pytest

from nicholslie.freealg import (
    BRAIDED,
    MINUS,
    FreeElement,
    NonHomogeneousError,
    apply_bracketing,
    braided_bracket,
    catalan,
    enumerate_bracketings,
    format_bracketing,
    minus_bracket,
    multinomial,
    word_degree,
    words_of_multidegree,
    words_of_total_degree,
)
from nicholslie.scalar import FieldMismatchError, Scalar

from conftest import matrix_from_strings, random_braiding_matrix, random_scalar, rational_matrix


def gen(B, i):
    return FreeElement.generator(B.n, B.order, i)


def word(B, letters, coeff=1):
    return FreeElement.from_word(B.n, B.order, letters, coeff)


# -- word utilities -----------------------------------------------------------

def test_word_degree():
    assert word_degree((1, 2, 1), 3) == (2, 1, 0)
    assert word_degree((), 2) == (0, 0)


def test_words_of_multidegree_lex():
    assert list(words_of_multidegree((1, 1))) == [(1, 2), (2, 1)]
    assert list(words_of_multidegree((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert len(list(words_of_multidegree((2, 1, 1)))) == multinomial((2, 1, 1)) == 12


def test_words_of_total_degree_lex():
    out = list(words_of_total_degree(2, 2))
    assert out == [(1, 1), (1, 2), (2, 1), (2, 2)]


# -- multiplication -----------------------------------------------------------

def test_multiply_words_concatenate():
    B = rational_matrix([[2, 2], [2, 2]])
    prod = gen(B, 1) * gen(B, 2)
    assert prod.terms == {(1, 2): Scalar.one(1)}


def test_multiply_distributes():
    B = rational_matrix([[2, 2], [2, 2]])
    s = gen(B, 1) + gen(B, 2)
    prod = s * gen(B, 1)
    assert prod == word(B, (1, 1)) + word(B, (2, 1))


def test_multiply_scalars_collect():
    B = rational_matrix([[2, 2], [2, 2]])
    from fractions import Fraction

    prod = gen(B, 1).scale(2) * gen(B, 2).scale(Fraction(1, 2))
    assert prod == word(B, (1, 2))


def test_multiply_unit_and_associativity(rng):
    B = random_braiding_matrix(rng, 2, 8)
    one = FreeElement.unit(2, 8)
    a = word(B, (1, 2)) + gen(B, 2).scale(3)
    b = word(B, (2, 2))
    c = gen(B, 1)
    assert one * a == a == a * one
    assert (a * b) * c == a * (b * c)


def test_multiply_ambient_mismatch():
    a = FreeElement.generator(2, 8, 1)
    b = FreeElement.generator(2, 4, 1)
    with pytest.raises(FieldMismatchError):
        a * b
    c = FreeElement.generator(3, 8, 1)
    with pytest.raises(FieldMismatchError):
        a * c


def test_grading_of_products(rng):
    B = random_braiding_matrix(rng, 3, 8)
    a = word(B, (1, 3))
    b = word(B, (2,))
    assert (a * b).degree() == (1, 1, 1)


# -- braided bracket -----------------------------------------------------------

# matrices with chi(d, d) = 1 at every degree d = (a, b), so that in
# [x, y] with y = s*x + e the words of s*x*x cancel
_CANCELLING = {1: [["1", "2"], ["1/2", "1"]], 3: [["1", "z"], ["z^2", "1"]], 8: [["1", "z^3"], ["z^5", "1"]]}


def random_of_degree(rng, B, alpha, terms):
    words = list(words_of_multidegree(alpha))
    out = FreeElement.zero(B.n, B.order)
    for letters in rng.sample(words, min(terms, len(words))):
        out = out + word(B, letters).scale(random_scalar(rng, B.order, nonzero=True))
    return out


def bracket_cases(rng, order):
    """(B, x, y) with multi-term homogeneous x, y; in half the cases y
    repeats a multiple of x, over a matrix where those terms cancel."""
    degrees = [(1, 1), (2, 1), (1, 2), (2, 0)]
    for trial in range(12):
        cancel = trial % 2 == 0
        if cancel:
            B = matrix_from_strings(_CANCELLING[order], order)
        else:
            B = random_braiding_matrix(rng, 2, order)
        dx = rng.choice(degrees)
        x = random_of_degree(rng, B, dx, 3)
        if cancel:
            y = x.scale(random_scalar(rng, order, nonzero=True)) + random_of_degree(rng, B, dx, 1)
        else:
            y = random_of_degree(rng, B, rng.choice(degrees), 3)
        yield cancel, B, x, y


def cancelled(got, x, y):
    """Some word of y*x or x*y is missing from the result."""
    return len(got.terms) < len(set((y * x).terms) | set((x * y).terms))


def test_braided_bracket_generators(rng):
    B = matrix_from_strings([["2", "z"], ["z^3", "-1"]], 8)
    got = braided_bracket(B, gen(B, 1), gen(B, 2))
    expected = word(B, (2, 1)) - word(B, (1, 2)).scale(B.entry(2, 1))
    assert got == expected
    for order in (1, 3, 8):
        saw_cancellation = False
        for cancel, B, x, y in bracket_cases(rng, order):
            got = braided_bracket(B, x, y)
            assert got == y * x - (x * y).scale(B.chi(y.degree(), x.degree()))
            saw_cancellation |= cancel and cancelled(got, x, y)
        assert saw_cancellation


def test_braided_bracket_same_generator():
    B = matrix_from_strings([["z", "z"], ["z", "z"]], 8)
    got = braided_bracket(B, gen(B, 1), gen(B, 1))
    expected = word(B, (1, 1)).scale(Scalar.one(8) - B.entry(1, 1))
    assert got == expected


def nested_braided_oracle(B):
    """[x1, [x2, x3]] expanded by hand:
    x3x2x1 - q32*x2x3x1 - q31*q21*x1x3x2 + q32*q31*q21*x1x2x3."""
    q32, q31, q21 = B.entry(3, 2), B.entry(3, 1), B.entry(2, 1)
    return (
        word(B, (3, 2, 1))
        - word(B, (2, 3, 1)).scale(q32)
        - word(B, (1, 3, 2)).scale(q31 * q21)
        + word(B, (1, 2, 3)).scale(q32 * q31 * q21)
    )


def test_braided_bracket_nested_expansion():
    B = matrix_from_strings(
        [["2", "z", "z^2"], ["z^3", "-1", "z^5"], ["z^6", "z^7", "2"]], 8
    )
    inner = braided_bracket(B, gen(B, 2), gen(B, 3))
    got = braided_bracket(B, gen(B, 1), inner)
    assert got == nested_braided_oracle(B)


def test_braided_bracket_rejects_non_homogeneous():
    B = rational_matrix([[2, 2], [2, 2]])
    mixed = gen(B, 1) + word(B, (1, 2))
    with pytest.raises(NonHomogeneousError):
        braided_bracket(B, mixed, gen(B, 1))


def test_braided_bracket_zero_operand():
    B = rational_matrix([[2, 2], [2, 2]])
    zero = FreeElement.zero(2, 1)
    assert not braided_bracket(B, zero, gen(B, 1)).terms


# -- minus bracket ---------------------------------------------------------------

def test_minus_bracket_generators(rng):
    B = rational_matrix([[2, 2], [2, 2]])
    got = minus_bracket(gen(B, 1), gen(B, 2))
    assert got == word(B, (2, 1)) - word(B, (1, 2))
    for order in (1, 3, 8):
        saw_cancellation = False
        for cancel, _, x, y in bracket_cases(rng, order):
            got = minus_bracket(x, y)
            assert got == y * x - x * y
            saw_cancellation |= cancel and cancelled(got, x, y)
        assert saw_cancellation


def test_minus_bracket_antisymmetric_diagonal(rng):
    B = random_braiding_matrix(rng, 2, 8)
    for letters in [(1,), (1, 2), (2, 2, 1)]:
        u = word(B, letters) + word(B, tuple(reversed(letters))).scale(random_scalar(rng, 8))
        assert not minus_bracket(u, u).terms


def test_minus_bracket_mixed_lengths():
    B = rational_matrix([[2, 2], [2, 2]])
    got = minus_bracket(gen(B, 1), word(B, (1, 2)))
    assert got == word(B, (1, 2, 1)) - word(B, (1, 1, 2))


def test_minus_is_braided_at_trivial_braiding(rng):
    # with all q_ij = 1 the braided bracket degenerates to the commutator
    B = rational_matrix([[1, 1], [1, 1]])
    for letters_x, letters_y in [((1,), (2,)), ((1, 2), (2,)), ((2, 1), (1, 2))]:
        x, y = word(B, letters_x), word(B, letters_y)
        assert braided_bracket(B, x, y) == minus_bracket(x, y)


# -- identities -------------------------------------------------------------------

def random_homogeneous(rng, B, max_len=3):
    length = rng.randint(1, max_len)
    letters = tuple(rng.randint(1, B.n) for _ in range(length))
    elem = word(B, letters, random_scalar(rng, B.order, nonzero=True))
    other = tuple(sorted(letters))
    if other != letters and rng.random() < 0.5:
        elem = elem + word(B, other, random_scalar(rng, B.order))
    return elem


def test_jacobi_like_identity_randomized(rng):
    # [[u,v],w] = [u,[v,w]] + p_vw^-1 [[u,w],v] + (p_wv - p_vw^-1) v [u,w]
    for _ in range(40):
        B = random_braiding_matrix(rng, 3, 8)
        u, v, w = (random_homogeneous(rng, B) for _ in range(3))
        p_vw = B.chi(v.degree(), w.degree())
        p_wv = B.chi(w.degree(), v.degree())
        lhs = braided_bracket(B, braided_bracket(B, u, v), w)
        rhs = (
            braided_bracket(B, u, braided_bracket(B, v, w))
            + braided_bracket(B, braided_bracket(B, u, w), v).scale(p_vw.inv())
            + (v * braided_bracket(B, u, w)).scale(p_wv - p_vw.inv())
        )
        assert lhs == rhs


def test_product_expansion_identity_randomized(rng):
    # [u, v*w] = p_wu [u,v]*w + v*[u,w]
    for _ in range(40):
        B = random_braiding_matrix(rng, 3, 8)
        u, v, w = (random_homogeneous(rng, B) for _ in range(3))
        p_wu = B.chi(w.degree(), u.degree())
        lhs = braided_bracket(B, u, v * w)
        rhs = (braided_bracket(B, u, v) * w).scale(p_wu) + v * braided_bracket(B, u, w)
        assert lhs == rhs


# -- bracketing trees -----------------------------------------------------------

def test_enumerate_bracketings_counts():
    assert len(enumerate_bracketings(1)) == 1
    assert len(enumerate_bracketings(2)) == 1
    assert len(enumerate_bracketings(3)) == 2
    assert len(enumerate_bracketings(5)) == 14 == catalan(4)


def test_enumerate_bracketings_unique_and_deterministic():
    trees = enumerate_bracketings(5)
    assert len(set(trees)) == len(trees)
    assert all(str(t).count("None") == 5 for t in trees)
    assert trees == enumerate_bracketings(5)


def test_enumerate_bracketings_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_bracketings(0)


def test_apply_bracketing_pair():
    B = rational_matrix([[2, 2], [2, 2]])
    tree = (None, None)
    got = apply_bracketing(B, tree, (1, 2), MINUS)
    assert got == word(B, (2, 1)) - word(B, (1, 2))


def test_apply_bracketing_left_comb_on_repeated_letter():
    B = rational_matrix([[2, 2], [2, 2]])
    tree = ((None, None), None)
    got = apply_bracketing(B, tree, (1, 1, 1), MINUS)
    assert not got.terms  # [x1,x1]- already vanishes in the free algebra


def test_apply_bracketing_matches_nested_bracket():
    B = matrix_from_strings(
        [["2", "z", "z^2"], ["z^3", "-1", "z^5"], ["z^6", "z^7", "2"]], 8
    )
    tree = (None, (None, None))
    got = apply_bracketing(B, tree, (1, 2, 3), BRAIDED)
    assert got == nested_braided_oracle(B)


def test_apply_bracketing_validates():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(ValueError):
        apply_bracketing(B, (None, None), (1, 2, 1), MINUS)
    with pytest.raises(ValueError):
        apply_bracketing(B, (None, None), (1, 2), "super")


def test_apply_bracketing_generator_permutation_equivariance(rng):
    # relabeling generators consistently with the matrix commutes with
    # evaluating any bracketing
    import itertools

    for _ in range(10):
        B = random_braiding_matrix(rng, 3, 8)
        perm = list(rng.sample([1, 2, 3], 3))

        def relabel(i):
            return perm[i - 1]

        Bp = type(B)(
            [
                [B.entry(perm.index(i) + 1, perm.index(j) + 1) for j in (1, 2, 3)]
                for i in (1, 2, 3)
            ]
        )
        w = tuple(rng.randint(1, 3) for _ in range(3))
        for tree in enumerate_bracketings(3):
            image = apply_bracketing(B, tree, w, BRAIDED)
            relabeled = FreeElement(
                3, 8, {tuple(relabel(i) for i in wd): c for wd, c in image.terms.items()}
            )
            direct = apply_bracketing(Bp, tree, tuple(relabel(i) for i in w), BRAIDED)
            assert relabeled == direct


def test_format_bracketing():
    assert format_bracketing((None, (None, None)), (1, 2, 3)) == "[x1,[x2,x3]]"
    assert format_bracketing(None, (2,)) == "x2"


# -- printing -----------------------------------------------------------------------

def test_element_printing_canonical():
    B = matrix_from_strings([["2", "z"], ["z", "2"]], 8)
    e = word(B, (2, 1)) - word(B, (1, 2)).scale(B.entry(2, 1))
    assert str(e) == "(-z) * x1 x2 + 1 * x2 x1"
    assert str(FreeElement.zero(2, 8)) == "0"
    assert str(FreeElement.unit(2, 8)) == "1"
