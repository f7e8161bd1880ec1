"""Skew derivations, pairing vectors, zeroness, and the two independent
rank computations for dim B(V)_alpha."""

import random

import pytest

from nicholslie.freealg import FreeElement, braided_bracket, words_of_multidegree
from nicholslie.nichols import (
    GuardrailExceeded,
    NicholsVector,
    basis_of_degree,
    is_zero_in_nichols,
    pairing_vector,
    skew_derivation,
    symmetrizer_rank_oracle,
)
from nicholslie.scalar import Scalar

from conftest import matrix_from_strings, random_braiding_matrix, random_scalar, rational_matrix


def gen(B, i):
    return FreeElement.generator(B.n, B.order, i)


def word(B, letters, coeff=1):
    return FreeElement.from_word(B.n, B.order, letters, coeff)


# -- skew derivation ------------------------------------------------------------

def test_derivation_of_matching_generator_is_unit():
    B = rational_matrix([[2, 2], [2, 2]])
    assert skew_derivation(B, 1, gen(B, 1)) == FreeElement.unit(2, 1)


def test_derivation_of_other_generator_is_zero():
    B = rational_matrix([[2, 2], [2, 2]])
    assert not skew_derivation(B, 2, gen(B, 1)).terms


def test_derivation_of_square():
    B = matrix_from_strings([["z", "z"], ["z", "z"]], 8)
    got = skew_derivation(B, 1, word(B, (1, 1)))
    q11_inv = B.entry(1, 1).inv()
    assert got == gen(B, 1).scale(Scalar.one(8) + q11_inv)


def test_derivation_of_square_vanishes_at_minus_one():
    B = rational_matrix([[-1]])
    got = skew_derivation(B, 1, FreeElement.from_word(1, 1, (1, 1)))
    assert not got.terms


def test_derivation_lowers_degree():
    B = rational_matrix([[2, 2], [2, 2]])
    d = skew_derivation(B, 1, word(B, (2, 1, 1)))
    assert d.degree() == (1, 1)


def test_derivation_rejects_degree_zero():
    B = rational_matrix([[2]])
    with pytest.raises(ValueError):
        skew_derivation(B, 1, FreeElement.unit(1, 1))


def test_q_leibniz_rule_randomized(rng):
    # D_i(u v) = D_i(u) v + chi(e_i, deg u)^-1 u D_i(v)
    for _ in range(30):
        B = random_braiding_matrix(rng, 3, 8)
        u = word(B, tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
        v = word(B, tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
        for i in (1, 2, 3):
            e_i = tuple(1 if k == i - 1 else 0 for k in range(3))
            twist = B.chi(e_i, u.degree()).inv()
            lhs = skew_derivation(B, i, u * v)
            rhs = skew_derivation(B, i, u) * v + (u * skew_derivation(B, i, v)).scale(twist)
            assert lhs == rhs


def test_iterated_derivations_match_pairing_keys(rng):
    # the value at dual word (j1, j2, ...) is the scalar left after
    # applying D_{j1} first, then D_{j2}, ...
    for _ in range(10):
        B = random_braiding_matrix(rng, 2, 8)
        u = word(B, (1, 2)) + word(B, (2, 1)).scale(rng.randint(-2, 2))
        pv = pairing_vector(B, u)
        for k, dual in enumerate(words_of_multidegree((1, 1))):
            step = u
            for j in dual:
                step = skew_derivation(B, j, step) if step.terms else step
            constant = step.terms.get((), Scalar.zero(8))
            assert pv.values[k] == constant


# -- pairing vector ----------------------------------------------------------------

def test_pairing_of_generator():
    B = rational_matrix([[2, 2], [2, 2]])
    pv = pairing_vector(B, gen(B, 1))
    assert pv.degree == (1, 0)
    assert pv.values == (Scalar.one(1),)


def test_pairing_of_braided_commutator_vanishes_when_disconnected():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    u = word(B, (2, 1)) - word(B, (1, 2)).scale(B.entry(2, 1))
    pv = pairing_vector(B, u)
    assert len(pv.values) == 2
    assert pv.is_zero()


def test_pairing_of_square_at_minus_one():
    B = matrix_from_strings([["-1", "z"], ["z^-1", "-1"]], 8)
    pv = pairing_vector(B, word(B, (1, 1)))
    assert pv.is_zero()


def test_pairing_rejects_non_homogeneous():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(ValueError):
        pairing_vector(B, gen(B, 1) + word(B, (1, 2)))


def test_pairing_is_dense_over_multidegree():
    B = rational_matrix([[2, 2], [2, 2]])
    pv = pairing_vector(B, word(B, (1, 1, 2)))
    assert len(pv.values) == len(list(words_of_multidegree((2, 1))))


# -- zeroness ------------------------------------------------------------------------

def test_generators_never_vanish(rng):
    for _ in range(5):
        B = random_braiding_matrix(rng, 3, 8)
        for i in (1, 2, 3):
            assert not is_zero_in_nichols(B, gen(B, i))


def test_square_zero_iff_diagonal_minus_one():
    B_zero = matrix_from_strings([["-1", "z"], ["z^-1", "2"]], 8)
    B_nonzero = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    square = lambda B: word(B, (1, 1))
    assert is_zero_in_nichols(B_zero, square(B_zero))
    assert not is_zero_in_nichols(B_nonzero, square(B_nonzero))


def test_commutation_relation_zero_iff_product_one():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    rel = word(B, (2, 1)) - word(B, (1, 2)).scale(B.entry(2, 1))
    assert is_zero_in_nichols(B, rel)
    B2 = matrix_from_strings([["2", "z"], ["z", "2"]], 8)
    rel2 = word(B2, (2, 1)) - word(B2, (1, 2)).scale(B2.entry(2, 1))
    assert not is_zero_in_nichols(B2, rel2)


def test_zero_elements_generate_ideal(rng):
    # if u = 0 in B(V) then u*w and w*u are 0 for any word w
    B = matrix_from_strings([["-1", "z"], ["z^-1", "-1"]], 8)
    u = word(B, (1, 1))  # zero since q_11 = -1
    assert is_zero_in_nichols(B, u)
    for _ in range(8):
        w = word(B, tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2))))
        assert is_zero_in_nichols(B, u * w)
        assert is_zero_in_nichols(B, w * u)


# -- dimension by elimination ------------------------------------------------------

def q_factorial(q, d):
    """(d)_q! = prod_{k=1..d} (1 + q + ... + q^{k-1}); independent oracle
    for the rank of the single-word degree over n = 1."""
    out = Scalar.one(q.order)
    for k in range(1, d + 1):
        bracket = Scalar.zero(q.order)
        for e in range(k):
            bracket = bracket + q ** e
        out = out * bracket
    return out


def test_rank_zero_for_nilpotent_generator():
    B = rational_matrix([[-1]])
    words, rank = basis_of_degree(B, (2,))
    assert rank == 0 and words == ()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rank_one_for_generic_diagonal(d):
    B = rational_matrix([[2]])
    assert not q_factorial(Scalar.from_rational(1, 2), d).is_zero()
    words, rank = basis_of_degree(B, (d,))
    assert rank == 1
    assert words == ((1,) * d,)


def test_rank_one_when_offdiagonal_product_one():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    words, rank = basis_of_degree(B, (1, 1))
    assert rank == 1
    assert words == ((1, 2),)  # lexicographically first pivot


def test_guardrail_raises():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(GuardrailExceeded):
        basis_of_degree(B, (3, 3), max_terms=4)


def test_basis_deterministic(rng):
    B = random_braiding_matrix(rng, 2, 8)
    assert basis_of_degree(B, (2, 1)) == basis_of_degree(B, (2, 1))


# -- symmetrizer oracle ---------------------------------------------------------------

def test_symmetrizer_degree_one_is_identity():
    B = rational_matrix([[2, 2], [2, 2]])
    assert symmetrizer_rank_oracle(B, (1, 0)) == 1
    assert symmetrizer_rank_oracle(B, (0, 1)) == 1


def test_symmetrizer_detects_nilpotent_square():
    B = rational_matrix([[-1]])
    assert symmetrizer_rank_oracle(B, (2,)) == 0


def test_symmetrizer_full_rank_generic():
    B = matrix_from_strings([["2", "z"], ["z", "2"]], 8)  # q12 q21 = z^2 != 1
    assert symmetrizer_rank_oracle(B, (1, 1)) == 2


BATTERY_VALUES = ["1", "-1", "2", "z^8", "z^3"]  # in Q(zeta_24): z^8 = zeta_3, z^3 = zeta_8


def battery(rng, count, n):
    for _ in range(count):
        rows = [[rng.choice(BATTERY_VALUES) for _ in range(n)] for _ in range(n)]
        try:
            yield matrix_from_strings(rows, 24)
        except Exception:
            continue


def test_oracle_agreement_small_battery():
    rng = random.Random(2024)
    degrees_by_n = {
        2: [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1), (4, 0)],
        3: [(1, 1, 1), (2, 1, 0), (2, 1, 1), (1, 1, 0)],
    }
    checked = 0
    for n, degrees in degrees_by_n.items():
        for B in battery(rng, 6, n):
            for alpha in degrees:
                _, rank = basis_of_degree(B, alpha)
                assert rank == symmetrizer_rank_oracle(B, alpha)
                checked += 1
    assert checked >= 40


@pytest.mark.parametrize("order", [1, 3, 8, 24])
def test_pairing_matrix_equals_symmetrizer_of_inverse_transpose(order):
    # The pairing matrix <y_v, x_w> (skew-derivation descent) equals,
    # entry by entry, the quantum-symmetrizer matrix of B' with
    # B'_ij = q_ji^-1.  basis_of_degree and symmetrizer_rank_oracle thus
    # rank one matrix built by two different constructions; both stay,
    # the second as the independent oracle for the first.
    from nicholslie.braiding import BraidingMatrix
    from nicholslie.nichols import _symmetrize

    rng = random.Random(order)
    degrees_by_n = {2: [(1, 1), (2, 1), (2, 2), (3, 1)], 3: [(1, 1, 1), (2, 1, 1), (1, 0, 2)]}
    checked = 0
    for n, degrees in degrees_by_n.items():
        B = random_braiding_matrix(rng, n, order)
        B_dual = BraidingMatrix(
            [[B.entry(j, i).inv() for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        for alpha in degrees:
            words = list(words_of_multidegree(alpha))
            for w in words:
                values = pairing_vector(B, word(B, w)).values
                image = _symmetrize(B_dual, {w: Scalar.one(order)}, sum(alpha))
                assert list(values) == [image.get(v, Scalar.zero(order)) for v in words]
                checked += len(words)
    assert checked == 4 + 9 + 36 + 16 + 36 + 144 + 9


def test_nichols_vector_values_align_with_words():
    # values[k] is the value at the k-th dual word in lexicographic order:
    # D_2 D_1 (x1 x2) = 1 and D_1 D_2 (x1 x2) = q21^-1
    B = rational_matrix([[2, 3], [5, 7]])
    pv = pairing_vector(B, word(B, (1, 2)))
    assert isinstance(pv, NicholsVector)
    assert list(words_of_multidegree((1, 1))) == [(1, 2), (2, 1)]
    assert pv.values == (Scalar.one(1), B.entry(2, 1).inv())


def test_is_zero_rejects_non_homogeneous():
    B = rational_matrix([[2, 2], [2, 2]])
    from nicholslie.freealg import NonHomogeneousError

    with pytest.raises(NonHomogeneousError):
        is_zero_in_nichols(B, gen(B, 1) + word(B, (1, 2)))


@pytest.mark.parametrize("elem", [
    FreeElement.from_word(3, 1, (1, 3)),  # rank 3 against a rank-2 matrix
    FreeElement.from_word(1, 1, (1, 1)),  # rank 1
], ids=["rank3", "rank1"])
def test_pairing_and_zeroness_reject_other_ambient(elem):
    B = rational_matrix([[2, 2], [2, 2]])
    for fn in (pairing_vector, is_zero_in_nichols):
        with pytest.raises(ValueError, match="different ambients"):
            fn(B, elem)


def test_is_zero_agrees_with_pairing_vector(rng):
    # Blocks: [x1, x2], zero iff q12 q21 = 1; x1 x2 - q12 x2 x1, which D_1
    # kills, so the descent's first branch vanishes; x1^N when q11 has
    # order N.  Elements are two-sided multiples of a block, sometimes
    # plus a word of the same degree.
    seen = set()
    late_nonzero = 0  # nonzero, yet the first pairing value vanishes
    for rows, order, nilpotency in [
        ([["-1", "2"], ["1/2", "3"]], 1, 2),
        ([["z", "z^2"], ["z", "-1"]], 3, 3),
        ([["z", "z^2"], ["z^3", "-1"]], 8, None),
    ]:
        B = matrix_from_strings(rows, order)
        x1, x2 = gen(B, 1), gen(B, 2)
        blocks = [braided_bracket(B, x1, x2), x1 * x2 - (x2 * x1).scale(B.entry(1, 2))]
        if nilpotency:
            blocks.append(word(B, (1,) * nilpotency))
        for _ in range(30):
            left = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
            right = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 1)))
            elem = word(B, left) * rng.choice(blocks) * word(B, right)
            if elem.terms and rng.random() < 0.3:
                letters = max(elem.terms)
                elem = elem + word(B, rng.sample(letters, len(letters)), random_scalar(rng, order, nonzero=True))
            if not elem.terms:
                continue
            zero = is_zero_in_nichols(B, elem)
            values = pairing_vector(B, elem).values
            assert zero == (not any(values))
            seen.add(zero)
            late_nonzero += not zero and not values[0]
    assert seen == {True, False}
    assert late_nonzero


def test_skew_derivation_index_range():
    B = rational_matrix([[2]])
    with pytest.raises(IndexError):
        skew_derivation(B, 2, FreeElement.from_word(1, 1, (1,)))


def test_pairing_guardrail():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(GuardrailExceeded):
        pairing_vector(B, word(B, (1, 2, 1, 2)), max_terms=3)


def test_word_pairing_cache_consistent():
    from nicholslie.nichols import word_pairing_vector

    B = rational_matrix([[2, 2], [2, 2]])
    first = word_pairing_vector(B, (1, 2))
    second = word_pairing_vector(B, (1, 2))
    assert first is second  # cached
    assert first.values == pairing_vector(B, word(B, (1, 2))).values
    with pytest.raises(GuardrailExceeded):
        word_pairing_vector(B, (1, 2), max_terms=1)


# -- classically known dimension tables -------------------------------------------


def test_symmetric_algebra_dimensions():
    # all q_ij = 1: every graded component is one-dimensional
    B = rational_matrix([[1, 1], [1, 1]])
    for alpha in [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
        assert basis_of_degree(B, alpha)[1] == 1
        assert symmetrizer_rank_oracle(B, alpha) == 1


def test_exterior_algebra_dimensions():
    # all q_ij = -1: one dimension on square-free degrees, zero elsewhere
    B = rational_matrix([[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]])
    for alpha in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        assert basis_of_degree(B, alpha)[1] == 1
        assert symmetrizer_rank_oracle(B, alpha) == 1
    for alpha in [(2, 0, 0), (2, 1, 0), (2, 1, 1), (2, 2, 0)]:
        assert basis_of_degree(B, alpha)[1] == 0
        assert symmetrizer_rank_oracle(B, alpha) == 0


def test_quantum_plane_dimensions():
    # q12 q21 = 1 with generic diagonal: ordered monomials x1^a x2^b are a
    # basis, so every component is one-dimensional
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    for alpha in [(1, 1), (2, 1), (2, 2), (3, 1), (1, 3)]:
        assert basis_of_degree(B, alpha)[1] == 1


def test_root_of_unity_truncation():
    # q11 = zeta_3 truncates the line at degree 3
    B = matrix_from_strings([["z"]], 3)
    assert basis_of_degree(B, (1,))[1] == 1
    assert basis_of_degree(B, (2,))[1] == 1
    assert basis_of_degree(B, (3,))[1] == 0
    assert basis_of_degree(B, (4,))[1] == 0
    assert symmetrizer_rank_oracle(B, (3,)) == 0
