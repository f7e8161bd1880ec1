"""Claim checkers: pinned instances, verdict taxonomy, batteries."""

import pytest

from nicholslie import verify
from nicholslie.freealg import (
    MINUS,
    FreeElement,
    apply_bracketing,
    enumerate_bracketings,
    format_bracketing,
    minus_bracket,
)
from nicholslie.graphs import realize_graph
from nicholslie.scalar import Scalar
from nicholslie.verify import (
    CONFIRMED,
    COUNTEREXAMPLE,
    INCONCLUSIVE,
    PRECONDITION_NOT_MET,
    check_prop_all_bracketings,
    check_prop_disconnected_pair,
    check_theorem_equivalences,
    check_theorem_max_support,
    grid_matrices,
    grid_matrix_at,
    grid_size,
    sample_grid_matrices,
)

from bracket_oracle import oracle_bracketing
from conftest import matrix_from_strings, rational_matrix


# -- equivalence checker ------------------------------------------------------

def test_equivalences_connected_instance():
    report = check_theorem_equivalences(rational_matrix([[2, 2], [2, 2]]))
    assert report.verdict == CONFIRMED
    assert report.evidence["graph_connected"] is True
    assert report.evidence["descending_word_member"] is True
    assert report.evidence["ascending_word_member"] is True
    assert report.evidence["full_support_member"] is True


def test_equivalences_disconnected_instance():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    report = check_theorem_equivalences(B)
    assert report.verdict == CONFIRMED
    assert not any(
        report.evidence[k]
        for k in (
            "graph_connected",
            "descending_word_member",
            "ascending_word_member",
            "full_support_member",
        )
    )


def test_equivalences_rank_one():
    report = check_theorem_equivalences(rational_matrix([[-1]]))
    assert report.verdict == CONFIRMED
    assert report.evidence["full_support_witness"] == "x1"


def test_equivalences_rejects_too_small_bound():
    with pytest.raises(ValueError):
        check_theorem_equivalences(rational_matrix([[2, 2], [2, 2]]), d_max=1)


@pytest.mark.parametrize("check", [check_theorem_equivalences, check_theorem_max_support])
@pytest.mark.parametrize("d_max", [True, 3.0, "3"])
def test_theorem_checks_refuse_a_non_int_bound(check, d_max):
    # a bool would read as degree 1 and be reported as "certified_to_degree": true
    with pytest.raises(ValueError, match="^d_max must be an int, got "):
        check(rational_matrix([[2, 1], [1, -1]]), d_max=d_max)


def test_equivalences_guardrail_inconclusive():
    B = rational_matrix([[2, 2], [2, 2]])
    report = check_theorem_equivalences(B, max_terms=1)
    assert report.verdict == INCONCLUSIVE
    assert "guardrail" in report.evidence


# -- max-support checker ---------------------------------------------------------

def test_max_support_path():
    B = realize_graph(3, [(1, 2), (2, 3)])
    report = check_theorem_max_support(B, d_max=4)
    assert report.verdict == CONFIRMED
    assert report.evidence["max_supports"] == [[1, 2, 3]]


def test_max_support_edge_plus_isolated():
    B = realize_graph(3, [(1, 2)])
    report = check_theorem_max_support(B, d_max=4)
    assert report.verdict == CONFIRMED
    assert report.evidence["max_supports"] == [[1, 2], [3]]


def test_max_support_disconnected_pair():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    report = check_theorem_max_support(B)
    assert report.verdict == CONFIRMED
    assert report.evidence["max_supports"] == [[1], [2]]


@pytest.mark.parametrize("n, edges, k", [(2, [(1, 2)], 2), (3, [(1, 2), (2, 3)], 3), (3, [(1, 2)], 2)])
def test_max_support_rejects_a_bound_below_the_largest_component(n, edges, k):
    # a word with k distinct generators has length >= k, so the check
    # could only fail below k
    with pytest.raises(ValueError) as info:
        check_theorem_max_support(realize_graph(n, edges), d_max=k - 1)
    assert str(info.value).startswith(f"d_max must be at least k={k}")


def test_max_support_bound_may_sit_below_n():
    # the largest component, {1, 2}, sets the floor, not n = 3
    report = check_theorem_max_support(realize_graph(3, [(1, 2)]), d_max=2)
    assert report.verdict == CONFIRMED
    assert report.evidence["max_supports"] == [[1, 2], [3]]


# -- proposition checkers ----------------------------------------------------------

def test_prop_pair_generators():
    B = rational_matrix([[2, 1], [1, 2]])
    report = check_prop_disconnected_pair(B, (1,), (2,))
    assert report.verdict == CONFIRMED


def test_prop_pair_square_against_generator():
    B = rational_matrix([[2, 1], [1, 2]])
    report = check_prop_disconnected_pair(B, (1, 1), (2,))
    assert report.verdict == CONFIRMED


def test_prop_pair_precondition_not_met():
    B = rational_matrix([[2, 2], [1, 2]])
    report = check_prop_disconnected_pair(B, (1,), (2,))
    assert report.verdict == PRECONDITION_NOT_MET
    assert report.evidence["pair"] == [1, 2]


def test_prop_pair_shared_generator_allowed():
    # overlapping supports only constrain distinct pairs
    B = rational_matrix([[2, 1], [1, 2]])
    report = check_prop_disconnected_pair(B, (1, 2), (2,))
    assert report.verdict == CONFIRMED


@pytest.mark.parametrize("u, v", [((), (2,)), ((1,), ())])
def test_prop_pair_needs_nonempty_monomials(u, v):
    with pytest.raises(ValueError, match="^both monomials must be nonempty$"):
        check_prop_disconnected_pair(rational_matrix([[2, 1], [1, 2]]), u, v)


def test_prop_brackets_power_word():
    B = matrix_from_strings([["z", "z^5"], ["z^2", "-1"]], 8)
    report = check_prop_all_bracketings(B, (1, 1, 1))
    assert report.verdict == CONFIRMED
    assert report.evidence["bracketings_checked"] == 2


def test_prop_brackets_disconnected_three_letter():
    B = rational_matrix([[2, 1], [1, 2]])
    report = check_prop_all_bracketings(B, (1, 2, 1))
    assert report.verdict == CONFIRMED


def test_prop_brackets_fully_disconnected_rank3():
    B = rational_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    report = check_prop_all_bracketings(B, (1, 2, 3))
    assert report.verdict == CONFIRMED
    assert report.evidence["bracketings_checked"] == 2


def test_prop_brackets_precondition_not_met():
    B = rational_matrix([[2, 2], [2, 2]])
    report = check_prop_all_bracketings(B, (1, 2))
    assert report.verdict == PRECONDITION_NOT_MET


def test_prop_brackets_needs_length_two():
    B = rational_matrix([[2]])
    with pytest.raises(ValueError):
        check_prop_all_bracketings(B, (1,))


def _nonzero_for(monkeypatch, chosen):
    """Make the checks' zero test report the chosen free-algebra elements,
    and only them, as nonzero in B(V).  The checks hand the zero test word
    -> int maps and a word charge, passed on to every other zero test."""
    vanishes = verify._vanishes

    def patched(B, terms, alpha, charge):
        if any(terms == c.terms for c in chosen):
            return False
        return vanishes(B, terms, alpha, charge)

    monkeypatch.setattr(verify, "_vanishes", patched)


# trees 0, 1, 3 and 4 of x1 x2 x1 x2 give one element, tree 2 gives 0; trees
# 1 and 3 of x1 x2 x3 x1 give one element
@pytest.mark.parametrize("word, picks", [((1, 2, 1, 2), (4,)), ((2, 1, 1), (1,)), ((1, 2, 3, 1), (4, 3))])
def test_prop_brackets_counterexample_names_first_nonvanishing_tree(monkeypatch, word, picks):
    B = rational_matrix([[2, 1, 1], [1, 2, 1], [1, 1, -1]])
    trees = enumerate_bracketings(len(word))
    elems = [apply_bracketing(B, tree, word, MINUS) for tree in trees]
    chosen = [elems[k] for k in picks]
    assert all(chosen)  # nonzero in the free algebra
    first = next(k for k, e in enumerate(elems) if e in chosen)
    assert check_prop_all_bracketings(B, word).verdict == CONFIRMED
    _nonzero_for(monkeypatch, chosen)
    report = check_prop_all_bracketings(B, word)
    assert report.verdict == COUNTEREXAMPLE
    assert report.evidence == {
        "bracketing": format_bracketing(trees[first], word), "element": str(elems[first]),
    }


def test_prop_pair_counterexample_names_the_bracket(monkeypatch):
    B = rational_matrix([[2, 1, 1], [1, 2, 1], [1, 1, -1]])
    u, v = (1, 2), (3, 1)
    bracket = minus_bracket(FreeElement.from_word(3, 1, u), FreeElement.from_word(3, 1, v))
    assert bracket and check_prop_disconnected_pair(B, u, v).verdict == CONFIRMED
    _nonzero_for(monkeypatch, [bracket])
    report = check_prop_disconnected_pair(B, u, v)
    assert report.verdict == COUNTEREXAMPLE
    assert report.evidence == {"bracket": "[x1 x2, x3 x1]-", "element": str(bracket)}
    assert check_prop_disconnected_pair(B, v, u).verdict == CONFIRMED  # another bracket


def test_prop_checks_charge_each_descent_against_the_cap():
    # [x1^5, x2]- needs 6 dual words, which the entry guard allows at cap 29,
    # but its descent emits 30 words: the check is Inconclusive, naming the
    # descent, the words and the cap
    B = rational_matrix([[2, 1], [1, 2]])
    u = (1,) * 5
    assert check_prop_disconnected_pair(B, u, (2,), max_terms=30).verdict == CONFIRMED
    report = check_prop_disconnected_pair(B, u, (2,), max_terms=29)
    assert report.verdict == INCONCLUSIVE
    assert report.evidence == {"guardrail": "pairing descent at degree (5, 1): needs 30 words, cap is 29"}
    # each of the 42 bracketings of x1 x1 x2 x1 x2 x2 has its own charge: none
    # emits more than 259 words, though together they emit 3,844 against the cap 840
    word = (1, 1, 2, 1, 2, 2)
    assert check_prop_all_bracketings(B, word, max_terms=840).verdict == CONFIRMED
    assert check_prop_all_bracketings(B, word, max_terms=839).verdict == INCONCLUSIVE  # the entry guard


def test_prop_checks_run_no_scalar_arithmetic(monkeypatch):
    # over Q(zeta_8) the brackets are word -> int maps and the descent runs on
    # Z[zeta_8]: a check that files no Counterexample does no Scalar arithmetic
    B = matrix_from_strings([["z", "1", "z^3"], ["1", "-1", "2"], ["z^5", "2", "1/3"]], 8)
    words = [(1, 2), (2, 1, 2), (1, 2, 1, 2), (2, 2, 1, 1, 2), (1, 3), (3, 3, 3), (1, 2, 3)]
    pairs = [((1,), (2,)), ((1, 1), (2, 1)), ((2, 1, 2), (1, 1)), ((1,), (3,)), ((3,), (3, 3))]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        def counted(self, *args, _op=getattr(Scalar, name), _name=name):
            calls.append(_name)
            return _op(self, *args)
        monkeypatch.setattr(Scalar, name, counted)
    verdicts = set()
    for report in ([check_prop_all_bracketings(B, w) for w in words]
                   + [check_prop_disconnected_pair(B, u, v) for u, v in pairs]):
        verdicts.add(report.verdict)
        assert report.verdict != COUNTEREXAMPLE
    assert verdicts == {CONFIRMED, PRECONDITION_NOT_MET}
    assert calls == []
    # a Counterexample's element text is the only place its Scalars are made
    monkeypatch.setattr(verify, "_vanishes", lambda B, terms, alpha, charge: not terms)
    report = check_prop_all_bracketings(B, (1, 2, 1))
    assert report.verdict == COUNTEREXAMPLE
    tree = enumerate_bracketings(3)[0]
    assert report.evidence == {"bracketing": "[x1,[x2,x1]]",
                               "element": str(oracle_bracketing(B, tree, (1, 2, 1), MINUS))}


def test_prop_checks_run_without_bracket_or_zeroness_api(monkeypatch):
    # the prop checks validate their words once and run on the kernels:
    # the public brackets and zero test would validate them again
    grid = list(sample_grid_matrices(3, OFF, DIAG, 8, 6, seed=14))
    words = [(1, 2), (1, 1, 2), (2, 1, 3, 1), (3, 3, 3), (1, 2, 3)]
    pairs = [((1,), (2,)), ((1, 1), (3, 2)), ((2, 3), (2,)), ((3, 1, 3), (2, 1))]

    def reports():
        out = []
        for B in grid:
            out += [check_prop_all_bracketings(B, w).to_dict() for w in words]
            out += [check_prop_disconnected_pair(B, u, v).to_dict() for u, v in pairs]
            out.append(check_prop_all_bracketings(B, (3, 3, 3, 3), max_terms=4).to_dict())
        return out

    expected = reports()
    assert {r["verdict"] for r in expected} >= {CONFIRMED, PRECONDITION_NOT_MET, INCONCLUSIVE}

    def refuse(*args):
        raise AssertionError("a prop check left the kernels")

    for name in ("apply_bracketing", "minus_bracket", "braided_bracket"):
        monkeypatch.setattr(f"nicholslie.freealg.{name}", refuse)
    monkeypatch.setattr("nicholslie.nichols.is_zero_in_nichols", refuse)
    for name in ("apply_bracketing", "minus_bracket", "braided_bracket", "is_zero_in_nichols"):
        assert not hasattr(verify, name)
    assert reports() == expected


# -- report determinism -------------------------------------------------------------

def test_reports_byte_identical_across_runs():
    B = matrix_from_strings([["2", "z"], ["z^-1", "2"]], 8)
    a = check_theorem_equivalences(B)
    b = check_theorem_equivalences(B)
    assert a.line() == b.line()
    assert a.to_dict() == b.to_dict()


def test_digest_distinguishes_instances():
    B1 = rational_matrix([[2, 2], [2, 2]])
    B2 = rational_matrix([[2, 1], [1, 2]])
    assert (
        check_theorem_equivalences(B1).digest
        != check_theorem_equivalences(B2).digest
    )


# -- batteries -----------------------------------------------------------------------

OFF = ["1", "-1", "2", "z"]
DIAG = ["-1", "2", "z"]


def test_grid_size_n2():
    assert grid_size(2, OFF, DIAG) == 4 ** 2 * 3 ** 2 == 144


def test_grid_matrices_exhaustive_and_distinct():
    seen = set()
    for B in grid_matrices(2, OFF, DIAG, order=3):
        seen.add(B.to_json())
    assert len(seen) == 144


def test_grid_decode_matches_iteration():
    for idx in (0, 17, 143):
        B = grid_matrix_at(idx, 2, OFF, DIAG, 3)
        assert B.n == 2 and B.order == 3


def test_sample_deterministic():
    a = [B.to_json() for B in sample_grid_matrices(3, OFF, DIAG, 3, count=5, seed=11)]
    b = [B.to_json() for B in sample_grid_matrices(3, OFF, DIAG, 3, count=5, seed=11)]
    assert a == b
    assert len(set(a)) == 5


def test_small_battery_soundness():
    # no Counterexample may ever appear on grid instances
    for B in sample_grid_matrices(2, OFF, DIAG, 3, count=20, seed=77):
        report = check_theorem_equivalences(B)
        assert report.verdict in (CONFIRMED, INCONCLUSIVE)
        report = check_theorem_max_support(B, d_max=3)
        assert report.verdict in (CONFIRMED, INCONCLUSIVE)


def test_grid_index_past_the_grid_rejected():
    with pytest.raises(IndexError, match="^grid index out of range$"):
        grid_matrix_at(grid_size(2, OFF, DIAG), 2, OFF, DIAG, 3)


def test_sample_larger_than_grid_rejected():
    with pytest.raises(ValueError, match="^cannot sample 145 of 144 grid points$"):
        next(sample_grid_matrices(2, OFF, DIAG, 3, count=145, seed=1))
