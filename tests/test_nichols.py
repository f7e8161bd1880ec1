"""Skew derivations, pairing vectors, zeroness, and the two independent
rank computations for dim B(V)_alpha."""

import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nicholslie
from nicholslie import nichols, scalar
from nicholslie.braiding import BraidingMatrix
from nicholslie.freealg import (BRAIDED, FreeElement, braided_bracket, multinomial, word_degree,
                                words_of_multidegree)
from nicholslie.lie import lie_span
from nicholslie.nichols import (
    GuardrailExceeded,
    NicholsVector,
    _RowReducer,
    basis_of_degree,
    is_zero_in_nichols,
    pairing_vector,
    skew_derivation,
    symmetrizer_rank_oracle,
    word_pairing_vector,
)
from nicholslie.scalar import FieldMismatchError, Scalar, _Cyclotomic, _ring_units

from conftest import matrix_from_strings, random_braiding_matrix, random_scalar, rational_matrix
from degree_basis_oracle import oracle_basis_of_degree
from descent_oracle import oracle_pairings
from scalar_reducer_oracle import ScalarRowReducer, integer_row, normalized_pivots
from symmetrizer_oracle import oracle_symmetrizer_row


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


def test_pairing_rejects_the_zero_element():
    B = rational_matrix([[2, 1], [1, 2]])
    with pytest.raises(ValueError, match="^the zero element has no well-defined pairing degree$"):
        pairing_vector(B, FreeElement.zero(2, 1))


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


def test_negative_cap_rejected():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(ValueError, match="max_terms must be >= 0, got -1"):
        basis_of_degree(B, (1, 1), max_terms=-1)
    with pytest.raises(ValueError, match="max_terms must be >= 0"):
        word_pairing_vector(B, (1, 2), max_terms=-3)
    # zero is a valid cap that refuses any work
    with pytest.raises(GuardrailExceeded):
        basis_of_degree(B, (1, 1), max_terms=0)


@pytest.mark.parametrize("cap", [True, False, "5", 2.9, -0.5, 4.0])
def test_non_int_cap_rejected(cap):
    # a cap is an int, never coerced: True is not cap 1 and -0.5 not cap 0
    B = rational_matrix([[2, 2], [2, 2]])
    message = rf"^max_terms must be an int >= 0, got {re.escape(repr(cap))}$"
    with pytest.raises(ValueError, match=message):
        basis_of_degree(B, (1, 1), max_terms=cap)
    with pytest.raises(ValueError, match=message):
        word_pairing_vector(B, (1, 2), max_terms=cap)


@pytest.mark.parametrize("alpha", [(True, 1), (1, True), (True, True), (1.0, 1), (2, 0.5)])
def test_degree_entries_must_be_ints(alpha):
    # a bool entry hashes and compares like an int (True == 1), so it used to
    # be answered as (1, 1), and a float one escaped as a TypeError from deep
    # inside; both are refused where the degree enters.  pairing_vector and
    # monomial_membership take their degree from letters, which word_degree
    # refuses unless int (test_freealg.py::test_letters_out_of_range_raise_one_error)
    B = rational_matrix([[2, 2], [2, 2]])
    lie_span(B, (1, 1), BRAIDED)  # a hit on the int-keyed span must not answer
    for call in (basis_of_degree, symmetrizer_rank_oracle,
                 lambda B, alpha: lie_span(B, alpha, BRAIDED)):
        with pytest.raises(ValueError, match=rf"^bad multidegree {re.escape(str(alpha))} for rank 2$"):
            call(B, alpha)


def test_basis_deterministic(rng):
    B = random_braiding_matrix(rng, 2, 8)
    assert basis_of_degree(B, (2, 1)) == basis_of_degree(B, (2, 1))


# -- the full-rank certificate mod p ---------------------------------------------


class CountingReducer(_RowReducer):
    """_RowReducer counting the integer rows inserted into any instance."""

    inserted = 0

    def insert_integers(self, row, order):
        CountingReducer.inserted += 1
        return super().insert_integers(row, order)


def degrees_up_to(n, d):
    return [a for a in itertools.product(range(d + 1), repeat=n) if 1 <= sum(a) <= d]


@pytest.mark.parametrize("order", [1, 3, 8, 24])
def test_certified_basis_matches_exact_elimination(order, monkeypatch):
    # random entries with coefficients in -1..1, and the same with q_11 = -1,
    # which makes the rank drop from degree 2 on; both answers of every degree
    # are checked against the word-by-word exact oracle
    monkeypatch.setattr(nichols, "_RowReducer", CountingReducer)
    rng = random.Random(2500 + order)
    minus_one = Scalar.from_rational(order, -1)
    seen = {"full": 0, "deficient": 0}
    for n in (2, 3):
        for diagonal in (None, minus_one):
            rows = [[random_scalar(rng, order, span=1, nonzero=True) for _ in range(n)]
                    for _ in range(n)]
            rows[0][0] = diagonal or rows[0][0]
            B = BraidingMatrix(rows)
            for alpha in degrees_up_to(n, 4):
                CountingReducer.inserted = 0
                words, rank = basis_of_degree(B, alpha)
                assert (words, rank) == oracle_basis_of_degree(B, alpha), (B, alpha)
                full = rank == multinomial(alpha)
                # a full-rank answer is certified mod p without exact elimination
                assert (CountingReducer.inserted == 0) == full, alpha
                seen["full" if full else "deficient"] += 1
    assert seen["full"] and seen["deficient"], seen


@pytest.mark.parametrize("q, reason", [(6, "1 + 1/q = 7/6 is 0 mod 7"), (7, "1/7 has no image mod 7"),
                                       (-8, "1 + 1/q = 7/8 is 0 mod 7 as the integer 7 over 8")])
def test_certificate_falls_back_at_a_small_prime(q, reason, monkeypatch):
    # with p = 7 at order 1, the one row at (2,), 1 + 1/q, is read as the
    # integer q + 1 over q; the exact fallback runs exactly when q + 1 is 0
    # mod p, so a denominator p divides (q = 7) no longer forces it, and the
    # answer is rank 1 either way
    monkeypatch.setattr(nichols, "_residue_field", lambda order: (7, (1,)))
    monkeypatch.setattr(nichols, "_RowReducer", CountingReducer)
    CountingReducer.inserted = 0
    B = rational_matrix([[q]])
    assert basis_of_degree(B, (2,)) == oracle_basis_of_degree(B, (2,)) == (((1, 1),), 1), reason
    assert CountingReducer.inserted == ((q + 1) % 7 == 0), reason


def test_fallback_keeps_the_rows_before_it(monkeypatch):
    # with p = 7, rows are dependent mod p or hold a 1/7 at various places,
    # so the exact fallback starts from prefixes of several independent rows
    monkeypatch.setattr(nichols, "_residue_field", lambda order: (7, (1,)))
    prefixes, insert = [], nichols._insert_mod_p

    def spy(pivots, row, p):
        independent = insert(pivots, row, p)
        if not independent:
            prefixes.append(len(pivots))
        return independent

    monkeypatch.setattr(nichols, "_insert_mod_p", spy)
    rng = random.Random(77)
    for _ in range(6):
        B = rational_matrix([[rng.choice([2, 3, 4, 5, 6, 7, 8, Fraction(1, 7)]) for _ in range(3)]
                             for _ in range(3)])
        for alpha in degrees_up_to(3, 4):
            assert basis_of_degree(B, alpha) == oracle_basis_of_degree(B, alpha), (B, alpha)
    assert max(prefixes) >= 5, prefixes


def test_basis_pairs_each_word_once(monkeypatch):
    # every word of alpha is paired exactly once, in lex order, whether the
    # certificate holds or the degree falls back to exact elimination; with
    # p = 7 (the patch of test_fallback_keeps_the_rows_before_it) both occur
    monkeypatch.setattr(nichols, "_residue_field", lambda order: (7, (1,)))
    monkeypatch.setattr(nichols, "_RowReducer", CountingReducer)
    pairings, paired = nichols._pairings, []

    def counted(B, terms, alpha):
        paired.extend(terms)
        return pairings(B, terms, alpha)

    monkeypatch.setattr(nichols, "_pairings", counted)
    rng = random.Random(77)
    seen = {"certified": 0, "fallback": 0}
    for _ in range(3):
        B = rational_matrix([[rng.choice([2, 3, 4, 5, 6, 7, 8, Fraction(1, 7)]) for _ in range(3)]
                             for _ in range(3)])
        for alpha in degrees_up_to(3, 4):
            paired.clear()
            CountingReducer.inserted = 0
            got = basis_of_degree(B, alpha)
            assert paired == list(words_of_multidegree(alpha)), alpha
            assert got == oracle_basis_of_degree(B, alpha), (B, alpha)
            seen["fallback" if CountingReducer.inserted else "certified"] += 1
    assert seen["certified"] and seen["fallback"], seen


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


# Entries whose inverses have different denominators in the two orders of a
# pair, so the descent's g_xy = lcm(b_xy, b_yx) and the symmetrizer's den(q_ab)
# differ from 1; at order 1, "2*z+1" is 3 and "-z^3" is -1
ASYMMETRIC_ENTRIES = ("1", "-1", "2", "1/3", "-3/2", "2*z+1", "-z^3", "z")


def _matrix_and_degree(st, order):
    """A Hypothesis strategy: a matrix of rank n <= 3 over Q(zeta_order)
    with ASYMMETRIC_ENTRIES, and a degree of total 1..5."""

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 3))
        B = matrix_from_strings(
            [[draw(st.sampled_from(ASYMMETRIC_ENTRIES)) for _ in range(n)] for _ in range(n)], order)
        total = draw(st.sampled_from((5, 4, 3, 2, 1)))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        return B, tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))

    return cases()


def _derandomized_property(strategy, check, examples):
    """Run check over a derandomized Hypothesis strategy."""
    hypothesis = pytest.importorskip("hypothesis")
    hypothesis.settings(derandomize=True, max_examples=examples, deadline=None)(
        hypothesis.given(strategy)(check))()


@pytest.mark.parametrize("order", [1, 3, 8, 24])
def test_pairing_matrix_equals_symmetrizer_of_inverse_transpose(order):
    # The pairing matrix <y_v, x_w> (skew-derivation descent) equals,
    # entry by entry, the quantum-symmetrizer matrix of B' with
    # B'_ij = q_ji^-1.  basis_of_degree and symmetrizer_rank_oracle thus
    # rank one matrix built by two different constructions; both stay,
    # the second as the independent oracle for the first.
    st = pytest.importorskip("hypothesis.strategies")

    def check(case):
        B, alpha = case
        n = B.n
        B_dual = BraidingMatrix(
            [[B.entry(j, i).inv() for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        for w in words_of_multidegree(alpha):
            assert list(pairing_vector(B, word(B, w)).values) == oracle_symmetrizer_row(B_dual, w), (B, w)

    _derandomized_property(_matrix_and_degree(st, order), check, 40)


@pytest.mark.parametrize("order", [1, 3, 8, 24])
def test_symmetrizer_rows_match_scalar_oracle(order):
    # each fraction-free row is the oracle's row of scalars times
    # prod den(q_{w_j w_l}) over the pairs of places j < l of its word, and
    # the integer rank is the rank of the oracle's rows
    st = pytest.importorskip("hypothesis.strategies")

    def check(case):
        B, alpha = case
        oracle = ScalarRowReducer()
        for w, row in zip(words_of_multidegree(alpha), nichols._symmetrizer_rows(B, alpha)):
            den = 1
            for j, a in enumerate(w):
                for b in w[j + 1:]:
                    den *= B.entry(a, b).den
            expected = oracle_symmetrizer_row(B, w)
            assert nichols._scalars(order, row, den) == expected, (B, w)
            oracle.insert(expected)
        assert symmetrizer_rank_oracle(B, alpha) == oracle.rank, (B, alpha)

    _derandomized_property(_matrix_and_degree(st, order), check, 40)


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
    FreeElement.from_word(2, 3, (1, 2)),  # order 3 against an order-1 matrix
], ids=["rank3", "rank1", "order3"])
def test_pairing_and_zeroness_reject_other_ambient(elem):
    # one matrix/element check, shared with the skew derivation and the
    # braided bracket: one error type, one message
    B = rational_matrix([[2, 2], [2, 2]])
    calls = [
        lambda: pairing_vector(B, elem),
        lambda: is_zero_in_nichols(B, elem),
        lambda: skew_derivation(B, 1, elem),
        lambda: braided_bracket(B, elem, elem),
    ]
    for call in calls:
        with pytest.raises(FieldMismatchError,
                           match=r"^braiding matrix and element have different ambients$"):
            call()


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
    with pytest.raises(ValueError, match=r"^letter 2 out of range 1\.\.1$"):
        skew_derivation(B, 2, FreeElement.from_word(1, 1, (1,)))


def test_derivation_multiplies_only_up_to_the_last_matching_letter(monkeypatch):
    # D_i multiplies the running prefix factor up to each x_i it meets and no
    # further: over q = [[1, z], [-1, z^2]] at order 3 every inverse is in
    # Z[zeta_3], so every g_ij is 1 and the running products are the only
    # products of the integer elements; q_11^-1 = 1 is skipped, so D_1 of
    # x1 x2 x2 x2 and of x2 x2 make no product, and D_2 of x1 x2 x1 x2 makes
    # 3, one for the x1 before the first x2 and two for the x2 x1 before the second
    B = matrix_from_strings([["1", "z"], ["-1", "z^2"]], 3)
    one = _ring_units(3)[1]
    nichols._skew(B, 1, {})  # the descent table, made on first use, before counting
    mul, calls = _Cyclotomic.__mul__, []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(_Cyclotomic, "__mul__", counted)
    counts = []
    for i, letters in ((1, (1, 2, 2, 2)), (1, (2, 2)), (2, (1, 2, 1, 2))):
        calls.clear()
        nichols._skew(B, i, {letters: one})
        counts.append(len(calls))
    assert counts == [0, 0, 3]
    monkeypatch.undo()

    def scalars(terms):
        return {w: Scalar(3, v.c) for w, v in terms.items()}

    assert scalars(nichols._skew(B, 1, {(1, 2, 2, 2): one})) == {(2, 2, 2): Scalar.one(3)}
    assert nichols._skew(B, 1, {(2, 2): one}) == {}
    assert scalars(nichols._skew(B, 2, {(1, 2, 1, 2): one})) == {
        (1, 1, 2): B.entry(2, 1).inv(),                                          # q21^-1
        (1, 2, 1): B.entry(2, 1).inv() * B.entry(2, 2).inv() * B.entry(2, 1).inv(),
    }


@pytest.mark.parametrize("order", [3, 8, 24])
def test_ring_product_with_a_rational_element_is_a_scaling(monkeypatch, order):
    # a product of elements of Z[zeta_N] with a factor that has no z-terms
    # scales the other factor's ints: no schoolbook product, same value
    rng = random.Random(order)
    phi = len(Scalar.one(order).num)
    cases = []
    for _ in range(20):
        a = [rng.randint(-9, 9) for _ in range(phi)]
        a[1] = a[1] or 1  # a has a z-term
        for r in (rng.randint(-9, 9), 1):
            rational = [r] + [0] * (phi - 1)
            cases += [(a, rational), (rational, a)]
    product, calls = scalar._product, []
    monkeypatch.setattr(scalar, "_product", lambda *args: calls.append(args) or product(*args))
    got = [_Cyclotomic(order, x) * _Cyclotomic(order, y) for x, y in cases]
    assert calls == []
    _Cyclotomic(order, a) * _Cyclotomic(order, a)
    assert len(calls) == 1
    monkeypatch.undo()
    for (x, y), z in zip(cases, got):
        assert Scalar(order, z.c) == Scalar(order, x) * Scalar(order, y)


def test_derivation_weighs_suffixes_over_one_denominator():
    # over q = [[2, 3], [5, 1]], q_12^-1 = 1/3 and q_21^-1 = 1/5 give
    # g_12 = g_21 = 15 and q_11^-1 = 1/2 gives g_11 = 2: D_1 of x1 x2 x1 weighs
    # its first x1 by g_12 g_11 = 30 and its second by a'_11 a'_12 = 1 * 5, over
    # g_12 g_11 = 30, which skew_derivation reads as the scalars 1 and 1/6
    B = matrix_from_strings([["2", "3"], ["5", "1"]], 1)
    assert nichols._skew(B, 1, {(1, 2, 1): 1}) == {(2, 1): 30, (1, 2): 5}
    assert skew_derivation(B, 1, word(B, (1, 2, 1))) == word(B, (2, 1)) + word(B, (1, 2), Fraction(1, 6))


def test_zero_test_exits_before_the_full_descent(monkeypatch):
    # is_zero_in_nichols stops at the first nonzero pairing value, so on a
    # nonzero element it applies D_i fewer times than pairing_vector does
    from nicholslie import nichols

    rows = [["2", "z"], ["z^3", "-1"]]
    skew, calls = nichols._skew, []

    def counted(*args):
        calls.append(args)
        return skew(*args)

    monkeypatch.setattr(nichols, "_skew", counted)
    counts = []
    for run in (is_zero_in_nichols, pairing_vector):
        B = matrix_from_strings(rows, 8)  # a fresh pairing-row memo
        u = word(B, (1, 2, 1, 2)) + word(B, (2, 2, 1, 1), 3)
        calls.clear()
        counts.append((run(B, u), len(calls)))
    (zero, zero_calls), (_, vector_calls) = counts
    assert not zero and 0 < zero_calls < vector_calls


def test_zero_test_refuses_a_descent_past_its_word_budget():
    # (x1 x2)^100 is nonzero, and the first branch of its descent emits about
    # C(100, j) * (100 - j) words at its j-th step: the default cap charges
    # 100, 9900 and 485100 words and refuses the fourth step before it runs
    B = rational_matrix([[2, 3], [5, -1]])
    with pytest.raises(GuardrailExceeded) as exc:
        is_zero_in_nichols(B, word(B, (1, 2) * 100))
    assert str(exc.value) == "pairing descent at degree (100, 100): needs 16180000 words, cap is 1000000"
    # a step on t words of degree alpha emits t * alpha_i: over q11 = q22 = -1,
    # D_1 of x1 x1 x2^20 x1^18 emits 20 words that cancel, and D_2 emits 20 more
    B = rational_matrix([[-1, 1], [1, -1]])
    u = word(B, (1, 1) + (2,) * 20 + (1,) * 18)
    assert is_zero_in_nichols(B, u, max_terms=40)
    with pytest.raises(GuardrailExceeded, match=r"^pairing descent at degree \(20, 20\): needs 40 words, cap is 39$"):
        is_zero_in_nichols(B, u, max_terms=39)
    with pytest.raises(ValueError, match="^max_terms must be >= 0, got -1$"):
        is_zero_in_nichols(B, u, max_terms=-1)


def test_zero_test_never_walks_a_vanished_branch():
    # both D_1 and D_2 of x1 x1 x2^20 x1^18 vanish when q11 = q22 = -1, so
    # the answer needs no walk over the 6.9e10 zeros of either branch
    src = str(Path(nicholslie.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """if True:
        from nicholslie import BraidingMatrix, FreeElement, is_zero_in_nichols
        B = BraidingMatrix.from_strings([["-1", "1"], ["1", "-1"]], 1)
        print(is_zero_in_nichols(B, FreeElement.from_word(2, 1, (1, 1) + (2,) * 20 + (1,) * 18)))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_pivot_insert_multiplies_only_nonzero_entries(monkeypatch):
    # a row into an empty reducer, offered as its integer row: over Q it is
    # kept as integers, with no scalar product; over Q(zeta_8) a lead with
    # z-terms multiplies the row by its norm cofactor, one product per
    # nonzero entry.  Only nonzero entries are stored, and the pivot over its
    # lead is the row over its lead.
    mul, calls = Scalar.__mul__, []

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    zero = Scalar.zero(1)
    row = [zero, Scalar.from_rational(1, 2), zero, zero, Scalar.from_rational(1, -6), zero, zero]
    monkeypatch.setattr(Scalar, "__mul__", counted)
    reducer, ints = _RowReducer(), integer_row(row)[0]
    assert reducer.insert_integers(ints, 1)
    assert calls == []
    assert reducer._by_lead == {1: (1, ((4, -3),))}  # 2 and -6 over their content 2
    assert normalized_pivots(reducer, 1) == [(1, ((1, Scalar.one(1)), (4, Scalar.from_rational(1, -3))))]
    assert not any(reducer.residue(ints, 1)[0])

    monkeypatch.undo()
    products, product = [], nichols._product

    def counted_product(order, a, b):
        products.append(a)
        return product(order, a, b)

    zero, z = Scalar.zero(8), Scalar.root_power(8, 1)
    row = [zero, z + 1, zero, zero, z * z / 2, zero, zero]
    monkeypatch.setattr(nichols, "_product", counted_product)
    reducer, ints = _RowReducer(), integer_row(row)[0]
    assert reducer.insert_integers(ints, 8)
    assert len(products) == 2
    assert list(reducer._by_lead) == [1] and [k for k, _ in reducer._by_lead[1][1]] == [4]
    assert normalized_pivots(reducer, 8) == [(1, ((1, Scalar.one(8)), (4, row[4] / row[1])))]
    assert not any(reducer.residue(ints, 8)[0])


def test_pairing_guardrail():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(GuardrailExceeded):
        pairing_vector(B, word(B, (1, 2, 1, 2)), max_terms=3)


def test_total_degree_bound_is_a_guardrail():
    from nicholslie.nichols import MAX_DEGREE

    B = rational_matrix([[1, 1], [1, 1]])
    too_long = word(B, (1,) * (MAX_DEGREE + 1))
    for call in (lambda: pairing_vector(B, too_long, max_terms=10**9),
                 lambda: is_zero_in_nichols(B, too_long),
                 lambda: skew_derivation(B, 1, too_long),
                 lambda: basis_of_degree(B, (MAX_DEGREE, 1)),
                 lambda: symmetrizer_rank_oracle(B, (0, MAX_DEGREE + 1))):
        with pytest.raises(GuardrailExceeded) as info:
            call()
        assert (info.value.needed, info.value.cap) == (MAX_DEGREE + 1, MAX_DEGREE)


def test_word_pairing_cache_consistent():
    from nicholslie.nichols import word_pairing_vector

    B = rational_matrix([[2, 2], [2, 2]])
    first = word_pairing_vector(B, (1, 2))
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


def _multiplicative_order(q, bound):
    """The least m >= 1 with q^m = 1, by repeated multiplication; None
    when there is none up to bound."""
    power = q
    for m in range(1, bound + 1):
        if power.is_one():
            return m
        power = power * q
    return None


def test_rank_one_closed_form_battery():
    # V = span(x) with x braided by q: x^k is zero in B(V) exactly when
    # (k)_q! = 0, so dim B(V)_k is 1 when q = 1, when q is no root of
    # unity, or when k < ord(q), and 0 otherwise (criterion 3 is q = -1)
    cases = 0
    for order in range(1, 13):
        literals = [sign + f"z^{j}" for j in range(order) for sign in ("", "-")]
        for text in literals + (["2"] if order == 1 else []):
            B = matrix_from_strings([[text]], order)
            q = B.entry(1, 1)
            m = _multiplicative_order(q, 2 * order)
            for k in range(1, 14):
                expected = int(q.is_one() or m is None or k < m)
                assert basis_of_degree(B, (k,))[1] == expected, (text, order, k)
                assert symmetrizer_rank_oracle(B, (k,)) == expected, (text, order, k)
                cases += 1
    assert cases == 13 * (2 * 78 + 1)


def test_split_vertex_factorizes_dimensions():
    # where q_i3 q_3i = 1 for i = 1, 2, B(V) = B(V_12) (x) B(V_3) as graded
    # spaces (M. Grana, J. Algebra 231, 2000), so dim B(V)_alpha is
    # dim B(V_12)_(a1,a2) times the rank-1 closed form at a3
    rng = random.Random(1810)
    units = [sign + f"z^{j}" for j in range(3) for sign in ("", "-")]
    degrees = [a for a in itertools.product(range(6), repeat=3) if 1 <= sum(a) <= 5]
    checked = 0
    for _ in range(40):
        q = [[rng.choice(units) for _ in range(3)] for _ in range(3)]
        B = matrix_from_strings(q, 3)
        rows = [[B.entry(i, j) for j in range(1, 4)] for i in range(1, 4)]
        rows[2][0], rows[2][1] = rows[0][2].inv(), rows[1][2].inv()
        B = BraidingMatrix(rows)
        B12 = BraidingMatrix([row[:2] for row in rows[:2]])
        q33 = B.entry(3, 3)
        m = _multiplicative_order(q33, 6)
        for alpha in degrees:
            left = basis_of_degree(B12, alpha[:2])[1] if alpha[0] + alpha[1] else 1
            right = int(q33.is_one() or m is None or alpha[2] < m)
            assert basis_of_degree(B, alpha)[1] == left * right, (q, alpha)
            checked += 1
    assert checked == 40 * 55


def test_pairing_row_memo_holds_only_short_words():
    from nicholslie.nichols import SHORT_ROW_LETTERS

    B = matrix_from_strings([["2", "z"], ["z^2", "-z"]], 3)
    long_word = (1, 1, 2) * 4
    values = word_pairing_vector(B, long_word).values
    assert len(values) == 495 and any(values)
    rows = B._pairing_row_cache
    assert rows and all(1 <= len(w) <= SHORT_ROW_LETTERS for w in rows)
    assert len(rows) <= B.n + B.n ** 2 + B.n ** 3
    # a row is the pairing vector of its word, as (index, value) pairs of
    # integers over the denominator of its degree
    for w, row in rows.items():
        alpha = word_degree(w, B.n)
        dense = oracle_pairings(B, word(B, w), alpha)
        values = nichols._scalars(B.order, [v.c for _, v in row], nichols._degree_den(B, alpha))
        assert [(k, v) for (k, _), v in zip(row, values)] == [(k, v) for k, v in enumerate(dense) if v]
