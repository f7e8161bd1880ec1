"""Braiding matrix validation, the bicharacter, and p~."""

import pytest

from nicholslie.braiding import BraidingMatrix, InvalidMatrixError
from nicholslie.scalar import MAX_ORDER, GuardrailExceeded, Scalar

from conftest import matrix_from_strings, random_braiding_matrix, rational_matrix


def test_validate_rank2_symmetric_point():
    B = rational_matrix([[-1, 1], [1, -1]])
    assert B.n == 2
    assert B.entry(1, 1) == Scalar.from_rational(1, -1)
    assert B.p_tilde(1, 2).is_one()


def test_validate_rank1():
    B = rational_matrix([[2]])
    assert B.n == 1 and B.entry(1, 1) == Scalar.from_rational(1, 2)


def test_zero_entry_rejected_with_position():
    with pytest.raises(InvalidMatrixError, match=r"\(1,2\)"):
        rational_matrix([[1, 0], [1, 1]])


def test_non_square_rejected():
    with pytest.raises(InvalidMatrixError, match="square"):
        rational_matrix([[1, 1], [1]])


@pytest.mark.parametrize("entry", [1, "2", 2.0, None])
def test_entries_checked_as_scalars_first(entry):
    # entry (1,1) is checked before its order is read
    with pytest.raises(InvalidMatrixError, match=r"^entry \(1,1\) is not a scalar$"):
        BraidingMatrix([[entry]])
    with pytest.raises(InvalidMatrixError, match=r"^entry \(1,1\) is not a scalar$"):
        BraidingMatrix([[entry, Scalar.one(3)], [Scalar.one(3), Scalar.one(3)]])


def test_mixed_orders_rejected():
    with pytest.raises(InvalidMatrixError):
        BraidingMatrix([[Scalar.one(4), Scalar.one(8)], [Scalar.one(4), Scalar.one(4)]])


# -- chi -----------------------------------------------------------------

def test_chi_on_basis_vectors():
    B = matrix_from_strings([["2", "z"], ["z^2", "-1"]], 8)
    assert B.chi((1, 0), (0, 1)) == B.entry(1, 2)
    assert B.chi((0, 1), (1, 0)) == B.entry(2, 1)


def test_chi_empty_product():
    B = matrix_from_strings([["2", "z"], ["z^2", "-1"]], 8)
    for beta in [(0, 0), (1, 0), (3, 2)]:
        assert B.chi((0, 0), beta).is_one()


def test_chi_biadditive_expansion():
    B = matrix_from_strings([["2", "z"], ["z^2", "-1"]], 8)
    q11, q21 = B.entry(1, 1), B.entry(2, 1)
    assert B.chi((2, 1), (1, 0)) == q11 * q11 * q21


def test_chi_length_mismatch():
    B = rational_matrix([[2, 2], [2, 2]])
    with pytest.raises(ValueError):
        B.chi((1,), (1, 0))


def test_chi_biadditivity_randomized(rng):
    for _ in range(20):
        B = random_braiding_matrix(rng, 3, 8)
        a = tuple(rng.randint(-2, 2) for _ in range(3))
        a2 = tuple(rng.randint(-2, 2) for _ in range(3))
        b = tuple(rng.randint(-2, 2) for _ in range(3))
        left = B.chi(tuple(x + y for x, y in zip(a, a2)), b)
        assert left == B.chi(a, b) * B.chi(a2, b)
        right = B.chi(b, tuple(x + y for x, y in zip(a, a2)))
        assert right == B.chi(b, a) * B.chi(b, a2)


# -- p_uv = chi(deg u, deg v) and p~ ---------------------------------------------------------------

def test_p_on_generators():
    B = matrix_from_strings([["2", "z"], ["z^2", "-1"]], 8)
    assert B.chi((0, 1), (1, 0)) == B.entry(2, 1)
    assert B.chi((1, 1), (1, 0)) == B.entry(1, 1) * B.entry(2, 1)


def test_p_of_product_word_with_itself():
    B = matrix_from_strings([["2", "z"], ["z^2", "-1"]], 8)
    # deg(x1 x2) paired with itself expands to the full 2x2 product
    expected = B.entry(1, 1) * B.entry(1, 2) * B.entry(2, 1) * B.entry(2, 2)
    assert B.chi((1, 1), (1, 1)) == expected


def test_p_tilde_inverse_pair_is_one():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    assert B.p_tilde(1, 2).is_one()


def test_p_tilde_two_two_is_four():
    B = rational_matrix([[2, 2], [2, 2]])
    assert B.p_tilde(1, 2) == Scalar.from_rational(1, 4)


def test_p_tilde_symmetric(rng):
    for _ in range(10):
        B = random_braiding_matrix(rng, 3, 8)
        for i in range(1, 4):
            for j in range(1, 4):
                assert B.p_tilde(i, j) == B.p_tilde(j, i)


def test_p_concatenation_multiplicativity(rng):
    for _ in range(15):
        B = random_braiding_matrix(rng, 3, 8)
        du = tuple(rng.randint(0, 2) for _ in range(3))
        dv = tuple(rng.randint(0, 2) for _ in range(3))
        dw = tuple(rng.randint(0, 2) for _ in range(3))
        duv = tuple(a + b for a, b in zip(du, dv))
        assert B.chi(duv, dw) == B.chi(du, dw) * B.chi(dv, dw)


def test_p_tilde_index_out_of_range():
    B = rational_matrix([[2]])
    with pytest.raises(IndexError):
        B.p_tilde(1, 2)


# -- matrix file format ------------------------------------------------------

def test_from_json_rational():
    B = BraidingMatrix.from_json(
        '{"n":2,"cyclotomic_order":1,"q":[["2","1"],["1","2"]]}'
    )
    assert B.n == 2 and B.order == 1
    assert B.entry(1, 1) == Scalar.from_rational(1, 2)


def test_from_json_cyclotomic():
    B = BraidingMatrix.from_json(
        '{"n":2,"cyclotomic_order":8,"q":[["-1","z"],["z^-1","-1"]]}'
    )
    assert B.p_tilde(1, 2).is_one()


def test_from_json_rejects_zero_entry():
    with pytest.raises(InvalidMatrixError, match=r"\(1,2\)"):
        BraidingMatrix.from_json('{"n":2,"cyclotomic_order":1,"q":[["1","0"],["1","1"]]}')


def test_from_json_rejects_bad_documents():
    for text in [
        "[]",
        "{",
        '{"n":2,"q":[["1","1"],["1","1"]]}',
        '{"n":0,"cyclotomic_order":1,"q":[]}',
        '{"n":2,"cyclotomic_order":0,"q":[["1","1"],["1","1"]]}',
        '{"n":2,"cyclotomic_order":1,"q":[["1","1"]]}',
        '{"n":1,"cyclotomic_order":1,"q":[[2]]}',
        "[" * 100_000,  # past the decoder's recursion limit: no RecursionError
    ]:
        with pytest.raises(InvalidMatrixError):
            BraidingMatrix.from_json(text)


def test_from_strings_rejects_boolean_order():
    # to_json would write "cyclotomic_order": true, which from_json rejects
    with pytest.raises(ValueError, match="cyclotomic order must be an integer >= 1, got True"):
        BraidingMatrix.from_strings([["2"]], True)


@pytest.mark.parametrize(
    "text",
    [
        '{"n": true, "cyclotomic_order": true, "q": [["2"]]}',
        '{"n": true, "cyclotomic_order": 1, "q": [["2"]]}',
        '{"n": 1, "cyclotomic_order": true, "q": [["2"]]}',
    ],
)
def test_from_json_rejects_booleans(text):
    # JSON true is a Python bool, an int subclass equal to 1
    with pytest.raises(InvalidMatrixError):
        BraidingMatrix.from_json(text)


def test_json_roundtrip():
    B = matrix_from_strings([["2", "z"], ["z^-1", "-1"]], 8)
    again = BraidingMatrix.from_json(B.to_json())
    assert again == B


def test_inverse_table_inverts_only_non_unit_entries(monkeypatch):
    B = matrix_from_strings([["-1", "1", "z"], ["1", "1", "z^2"], ["z + 1", "1", "2"]], 3)
    calls = []
    inv = Scalar.inv
    monkeypatch.setattr(Scalar, "inv", lambda s: calls.append(s) or inv(s))
    rows = [B.inverse_row(i) for i in range(1, B.n + 1)]
    assert len(calls) == 5  # one per entry != 1, and the table is built once
    one = Scalar.one(B.order)
    for i, row in enumerate(rows, start=1):
        for j, q_inv in enumerate(row, start=1):
            if B.entry(i, j).is_one():
                assert q_inv is one
            else:
                assert q_inv * B.entry(i, j) == one and q_inv is not one


def test_from_json_refuses_order_above_cap():
    for order in (MAX_ORDER + 1, 1000000007):
        with pytest.raises(GuardrailExceeded, match=f"^cyclotomic order {order}: "):
            BraidingMatrix.from_json(f'{{"n":1,"cyclotomic_order":{order},"q":[["2"]]}}')


def test_empty_matrix_rejected():
    with pytest.raises(InvalidMatrixError, match="^matrix must have rank at least 1$"):
        BraidingMatrix([])


def test_matrix_attributes_cannot_be_set():
    B = matrix_from_strings([["2"]], 1)
    for name in ("n", "order", "_json", "extra"):
        with pytest.raises(AttributeError, match="^BraidingMatrix is immutable$"):
            setattr(B, name, 3)
    assert B.n == 1 and B.order == 1


def test_first_use_memos_are_made_once():
    B = matrix_from_strings([["2", "z"], ["1", "-1"]], 3)
    assert B._lie_span_cache == {} and B._pairing_row_cache == {}
    for name in ("_inv_rows", "_chi_groups", "_json", "_shuffle_cache", "_shape_cache"):
        assert getattr(B, name) is None
    text, row = B.to_json(), B.inverse_row(2)
    assert B.to_json() is text and B.inverse_row(2) is row
    assert B._inv_rows[1] is row
    # chi's groups: the entries != 1 by value, in order of first appearance
    B.chi((1, 1), (1, 1))
    groups = B._chi_groups
    B.chi((2, 0), (0, 1))
    assert B._chi_groups is groups
    assert [(str(value), cells) for value, cells in groups] == [
        ("2", ((0, 0),)), ("z", ((0, 1),)), ("-1", ((1, 1),))]
