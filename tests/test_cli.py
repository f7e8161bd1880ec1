"""Command-line interface: parsers, DOT output, dispatch, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nicholslie
from nicholslie.braiding import BraidingMatrix, InvalidMatrixError
from nicholslie.cli import (
    BracketParseError,
    emit_dot,
    main,
    parse_bracket_expr,
    parse_degree,
    parse_matrix_file,
    parse_monomial,
)
from nicholslie.freealg import BRAIDED, MINUS, FreeElement, format_bracketing
from nicholslie.graphs import AUGMENTED, PURE, build_graph, generated_subgraph
from nicholslie.lie import lie_span
from nicholslie.nichols import MAX_DEGREE, basis_of_degree, pairing_vector, symmetrizer_rank_oracle
from nicholslie.scalar import MAX_ORDER, Scalar

from conftest import assert_witness_lines_rebuild, rational_matrix


CONNECTED = '{"n":2,"cyclotomic_order":1,"q":[["2","2"],["2","2"]]}'
DISCONNECTED = '{"n":2,"cyclotomic_order":8,"q":[["2","z"],["z^-1","2"]]}'
NEGATIVE = '{"n":1,"cyclotomic_order":1,"q":[["-1"]]}'
ALL_ONES_OFF = '{"n":2,"cyclotomic_order":1,"q":[["2","1"],["1","2"]]}'


@pytest.fixture
def matrix_file(tmp_path):
    def write(text, name="m.json"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


# -- matrix files -------------------------------------------------------------

def test_parse_matrix_file_rational(matrix_file):
    B = parse_matrix_file(matrix_file('{"n":2,"cyclotomic_order":1,"q":[["2","1"],["1","2"]]}'))
    assert B.n == 2 and B.entry(1, 1) == Scalar.from_rational(1, 2)


def test_parse_matrix_file_cyclotomic(matrix_file):
    B = parse_matrix_file(matrix_file('{"n":2,"cyclotomic_order":8,"q":[["-1","z"],["z^-1","-1"]]}'))
    assert B.p_tilde(1, 2).is_one()


def test_parse_matrix_file_rejects_zero_entry(matrix_file):
    with pytest.raises(InvalidMatrixError):
        parse_matrix_file(matrix_file('{"n":1,"cyclotomic_order":1,"q":[["0"]]}'))


def test_parse_matrix_file_missing(tmp_path):
    with pytest.raises(InvalidMatrixError):
        parse_matrix_file(str(tmp_path / "nope.json"))


# -- bracket expressions ----------------------------------------------------------

def test_parse_bracket_expr_nested():
    assert parse_bracket_expr("[x1,[x2,x3]]") == ((None, (None, None)), (1, 2, 3))


def test_parse_bracket_expr_leaf():
    assert parse_bracket_expr("x3") == (None, (3,))


def test_parse_bracket_expr_whitespace():
    assert parse_bracket_expr(" [ x1 , [ x2 , x3 ] ] ") == ((None, (None, None)), (1, 2, 3))


@pytest.mark.parametrize("bad", ["[x1", "x1]", "[x1,x2", "[x1 x2]", "", "[x1,]", "y2", "[x1,x2]]"])
def test_parse_bracket_expr_rejects(bad):
    with pytest.raises(BracketParseError):
        parse_bracket_expr(bad)


def test_bracket_expr_print_parse_identity():
    leaf = None
    for bracketing in [
        (leaf, (1,)),
        ((leaf, leaf), (1, 2)),
        ((leaf, (leaf, leaf)), (1, 2, 3)),
        (((leaf, leaf), (leaf, (leaf, leaf))), (1, 2, 3, 1, 4)),
    ]:
        assert parse_bracket_expr(format_bracketing(*bracketing)) == bracketing


def test_parse_monomial():
    assert parse_monomial("x2 x1", 2) == (2, 1)
    with pytest.raises(BracketParseError):
        parse_monomial("x3", 2)
    with pytest.raises(BracketParseError):
        parse_monomial("", 2)
    with pytest.raises(BracketParseError):
        parse_monomial("x1 y2", 2)


def test_parse_degree():
    assert parse_degree("1,2", 2) == (1, 2)
    with pytest.raises(BracketParseError):
        parse_degree("1", 2)
    with pytest.raises(BracketParseError):
        parse_degree("1,-2", 2)
    with pytest.raises(BracketParseError):
        parse_degree("1,b", 2)


# -- DOT ------------------------------------------------------------------------

DOT_EDGE = re.compile(r"^  v(\d+) -- v(\d+)(?: \[label=\"[^\"]*\"\])?;$")
DOT_VERTEX = re.compile(r"^  v(\d+);$")


def dot_check(text):
    """Minimal DOT grammar check; returns (vertex count, edge count)."""
    lines = text.splitlines()
    assert lines[0] == "graph dynkin {"
    assert lines[-1] == "}"
    vertices = edges = 0
    for line in lines[1:-1]:
        if DOT_VERTEX.match(line):
            vertices += 1
        elif DOT_EDGE.match(line):
            edges += 1
        else:
            raise AssertionError(f"unparseable DOT line: {line!r}")
    return vertices, edges


def test_emit_dot_edgeless():
    B = rational_matrix([[2, 1], [1, 2]])
    text = emit_dot(build_graph(B, PURE))
    assert dot_check(text) == (2, 0)


def test_emit_dot_single_edge_annotated():
    B = rational_matrix([[2, 2], [2, 2]])
    text = emit_dot(build_graph(B, PURE), B, annotate=True)
    assert dot_check(text) == (2, 1)
    assert 'label="4"' in text


def test_emit_dot_path_sorted_edges():
    from nicholslie.graphs import realize_graph

    B = realize_graph(3, [(2, 3), (1, 2)])
    text = emit_dot(build_graph(B, PURE))
    assert dot_check(text) == (3, 2)
    assert text.index("v1 -- v2") < text.index("v2 -- v3")


def test_emit_dot_augmented_labels():
    from nicholslie.braiding import BraidingMatrix

    B = BraidingMatrix.from_json(DISCONNECTED)
    text = emit_dot(build_graph(B, AUGMENTED), B, annotate=True)
    assert 'label="(z, -z^3)"' in text  # z^-1 = -z^3 canonically in Q(zeta_8)


def test_emit_dot_subgraph_vertices():
    B = rational_matrix([[2, 1, 2], [1, 2, 1], [2, 1, 2]])
    sub = generated_subgraph(build_graph(B, PURE), {1, 3})
    assert dot_check(emit_dot(sub)) == (2, 1)


def test_emit_dot_byte_stable():
    B = rational_matrix([[2, 2], [2, 2]])
    G = build_graph(B, PURE)
    assert emit_dot(G, B, annotate=True) == emit_dot(G, B, annotate=True)


def test_emit_dot_annotation_needs_the_matrix():
    G = build_graph(rational_matrix([[2, 2], [2, 2]]), PURE)
    with pytest.raises(ValueError, match="^annotation needs the braiding matrix$"):
        emit_dot(G, annotate=True)


# -- dispatch ----------------------------------------------------------------------

def test_cmd_graph_text(matrix_file):
    code, out = run(["graph", "--input", matrix_file(CONNECTED), "--kind", "pure"])
    assert code == 0
    assert out == "vertices: 1 2\nedge 1 2\n"


def test_cmd_graph_annotated(matrix_file):
    code, out = run(
        ["graph", "--input", matrix_file(CONNECTED), "--kind", "pure", "--annotate"]
    )
    assert code == 0
    assert "edge 1 2 label=4" in out


def test_cmd_graph_augmented_annotated(matrix_file):
    code, out = run(
        ["graph", "--input", matrix_file(DISCONNECTED), "--kind", "augmented", "--annotate"]
    )
    assert (code, out) == (0, "vertices: 1 2\nedge 1 2 labels=z,-z^3\n")


def test_cmd_graph_dot(matrix_file):
    code, out = run(["graph", "--input", matrix_file(CONNECTED), "--kind", "pure", "--dot"])
    assert code == 0
    assert dot_check(out) == (2, 1)


def test_cmd_components(matrix_file):
    code, out = run(["components", "--input", matrix_file(DISCONNECTED), "--kind", "pure"])
    assert code == 0
    assert out == "1\n2\n"
    code, out = run(["components", "--input", matrix_file(DISCONNECTED), "--kind", "augmented"])
    assert code == 0
    assert out == "1 2\n"


def test_cmd_bracket(matrix_file):
    code, out = run(
        [
            "bracket",
            "--input",
            matrix_file(CONNECTED),
            "--expr",
            "[x1,x2]",
            "--lie",
            "minus",
        ]
    )
    assert code == 0
    assert out == "(-1) * x1 x2 + 1 * x2 x1\n"


def test_cmd_bracket_nichols_flag(matrix_file):
    code, out = run(
        [
            "bracket",
            "--input",
            matrix_file(ALL_ONES_OFF),
            "--expr",
            "[x1,x2]",
            "--lie",
            "minus",
            "--nichols",
        ]
    )
    assert code == 0
    assert "zero in Nichols algebra: yes" in out


def test_console_script_on_closed_stdout_exits_quietly(matrix_file):
    # the console script's first write meets a pipe whose read end is
    # closed: no traceback, and status 141, which no answer (0-4) uses
    path = matrix_file('{"n":2,"cyclotomic_order":3,"q":[["-1","z"],["1","z^2"]]}')
    src = str(Path(nicholslie.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nicholslie.cli", "bracket", "--input", path,
             "--expr", "[x1,[x2,x1]]", "--lie", "braided", "--nichols"],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(w)
    assert proc.stderr == b""
    assert proc.returncode == 141


def test_cmd_bracket_generator_out_of_range(matrix_file, capsys):
    code, out = run(
        ["bracket", "--input", matrix_file(CONNECTED), "--expr", "[x1,x9]", "--lie", "minus"]
    )
    assert code == 4 and out == ""
    assert capsys.readouterr().err == "error: generator x9 out of range for rank 2\n"


def test_cmd_bracket_nichols_honors_max_terms(matrix_file, capsys):
    argv = ["bracket", "--input", matrix_file(CONNECTED), "--expr", "[[x1,x1],[x2,[x2,x1]]]",
            "--lie", "minus", "--nichols"]
    code, out = run(argv + ["--max-terms", "1"])
    assert code == 3 and "zero in Nichols algebra" not in out
    assert capsys.readouterr().err == (
        "inconclusive: pairing descent at degree (3, 2): needs 10 entries, cap is 1\n"
    )
    code, out = run(argv + ["--max-terms", "10"])
    assert code == 0 and "zero in Nichols algebra" in out


def test_cmd_bracket_honors_max_terms_before_expansion(matrix_file, capsys):
    # the alternating left comb [[[x1,x2],x1],...] of 18 letters expands
    # to megabytes; its at most multinomial((9, 9)) words meet the cap first
    expr = "x1"
    for letter in ("x2", "x1") * 8 + ("x2",):
        expr = f"[{expr},{letter}]"
    code, out = run(["bracket", "--input", matrix_file('{"n":2,"cyclotomic_order":1,"q":[["2","3"],["5","7"]]}'),
                     "--expr", expr, "--lie", "braided", "--max-terms", "1"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        "inconclusive: bracket expansion at degree (9, 9): needs 48620 entries, cap is 1\n"
    )


def test_cmd_ismember_long_word_refused_by_candidate_count(matrix_file, capsys):
    # the build of (14,) first builds the spans below it, each under its own
    # guard: (k,) pairs k - 1 candidates of one word through k - 1 table
    # entries, so (7,) is the first refused, before any bracket of it is built
    code, out = run(
        ["ismember", "--input", matrix_file('{"n":1,"cyclotomic_order":1,"q":[["2"]]}'),
         "--monomial", " ".join(["x1"] * 14), "--lie", "braided", "--max-terms", "5"]
    )
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        "inconclusive: Lie span at degree (7,) (6 candidates x 1 words, 6 table entries): "
        "needs 6 entries, cap is 5\n"
    )


def test_cmd_ismember_fifteen_letters_member_at_default_cap(matrix_file, capsys):
    # catalan(14) = 2674440 bracketings, but only 14 candidates are paired
    code, out = run(
        ["ismember", "--input", matrix_file('{"n":1,"cyclotomic_order":1,"q":[["2"]]}'),
         "--monomial", " ".join(["x1"] * 15), "--lie", "braided"]
    )
    assert code == 0 and out.splitlines()[0] == "Member"
    assert capsys.readouterr().err == ""


def test_cmd_bracket_deeply_nested_expr_is_inconclusive(matrix_file, capsys):
    expr = "[x1," * 1199 + "x1" + "]" * 1199
    code, out = run(["bracket", "--input", matrix_file('{"n":1,"cyclotomic_order":1,"q":[["1"]]}'),
                     "--expr", expr, "--lie", "minus"])
    assert code == 3 and out == ""
    assert capsys.readouterr().err == (
        f"inconclusive: total degree of (1200,): needs 1200 letters, cap is {MAX_DEGREE}\n"
    )


def test_cmd_bracket_deeply_nested_malformed_expr_is_error(matrix_file, capsys):
    code, out = run(["bracket", "--input", matrix_file('{"n":1,"cyclotomic_order":1,"q":[["1"]]}'),
                     "--expr", "[" * 1200 + "x1", "--lie", "minus"])
    assert code == 4 and out == ""
    assert capsys.readouterr().err == "error: expected ',' inside bracket\n"


def test_cmd_dim_at_large_cyclotomic_order(matrix_file):
    # a rational entry needs neither the root table nor a field norm
    code, out = run(["dim", "--input", matrix_file('{"n":1,"cyclotomic_order":20000,"q":[["2"]]}'),
                     "--degree", "3"])
    assert (code, out) == (0, "1\n")


def test_cmd_dim_refuses_order_above_cap(matrix_file, capsys):
    # refused before the modulus, a list of about 10^9 ints, is built
    path = matrix_file('{"n":1,"cyclotomic_order":1000000007,"q":[["2"]]}')
    assert run(["dim", "--input", path, "--degree", "1"]) == (3, "")
    assert capsys.readouterr().err == (
        f"inconclusive: cyclotomic order 1000000007: needs 1000000007 roots of unity, "
        f"cap is {MAX_ORDER}\n"
    )


OVERSIZED = '{"n":2,"cyclotomic_order":3,"q":[["2","z"],["z","2"]]}'


@pytest.mark.parametrize("argv, degree", [
    (["dim", "--degree", "99999999999999999999,1"], (99999999999999999999, 1)),
    (["dim", "--degree", "20000,20000"], (20000, 20000)),
    (["dim", "--degree", "200000,200000"], (200000, 200000)),
    (["dim", "--degree", "5000,0"], (5000, 0)),
    (["verify", "--claim", "prop-brackets", "--json", "--monomial", " ".join(["x1"] * 20000)],
     (20000, 0)),
], ids=["factorial-overflow", "count-too-long-to-print", "slow-factorials", "deep-descent",
        "prop-brackets-long-word"])
def test_oversized_degree_is_inconclusive(matrix_file, capsys, argv, degree):
    # refused by the total-degree bound before any count is computed
    code, out = run(argv[:1] + ["--input", matrix_file(OVERSIZED)] + argv[1:])
    assert code == 3
    message = f"total degree of {degree}: needs {sum(degree)} letters, cap is {MAX_DEGREE}"
    assert message in out + capsys.readouterr().err


def test_degree_bound_sits_below_the_stack_depth(matrix_file):
    ones = matrix_file('{"n":2,"cyclotomic_order":1,"q":[["1","1"],["1","1"]]}')
    one = matrix_file('{"n":1,"cyclotomic_order":1,"q":[["1"]]}', name="one.json")
    top = " ".join(["x1"] * MAX_DEGREE)
    assert run(["dim", "--input", ones, "--degree", f"{MAX_DEGREE},0"]) == (0, "1\n")
    assert run(["dim", "--input", ones, "--degree", f"{MAX_DEGREE + 1},0"]) == (3, "")
    assert run(["ismember", "--input", one, "--monomial", top, "--lie", "minus",
                "--max-terms", str(10**300)]) == (0, "NotMember\n")
    code, out = run(["verify", "--input", ones, "--claim", "prop-pair",
                     "--u", " ".join(["x1"] * (MAX_DEGREE - 1)), "--v", "x2"])
    assert code == 0 and out.endswith("Confirmed\n")


def test_cmd_ismember(matrix_file):
    code, out = run(
        ["ismember", "--input", matrix_file(DISCONNECTED), "--monomial", "x2 x1", "--lie", "braided"]
    )
    assert code == 0
    assert out.splitlines()[0] == "NotMember"
    code, out = run(
        ["ismember", "--input", matrix_file(CONNECTED), "--monomial", "x2 x1", "--lie", "braided"]
    )
    assert code == 0
    assert out.splitlines()[0] == "Member"
    assert any(line.startswith("witness:") for line in out.splitlines()[1:])


def test_cmd_dim(matrix_file):
    code, out = run(["dim", "--input", matrix_file(NEGATIVE), "--degree", "2"])
    assert code == 0
    assert out == "0\n"


def test_cmd_verify_confirmed(matrix_file):
    code, out = run(["verify", "--input", matrix_file(CONNECTED), "--claim", "thm-equiv"])
    assert code == 0
    claim, digest, verdict = out.split()
    assert claim == "thm-equiv" and verdict == "Confirmed"


def test_cmd_verify_json(matrix_file):
    code, out = run(
        ["verify", "--input", matrix_file(DISCONNECTED), "--claim", "thm-equiv", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Confirmed"
    assert data["evidence"]["graph_connected"] is False


def test_cmd_verify_prop_pair(matrix_file):
    code, out = run(
        [
            "verify",
            "--input",
            matrix_file(ALL_ONES_OFF),
            "--claim",
            "prop-pair",
            "--u",
            "x1 x1",
            "--v",
            "x2",
        ]
    )
    assert code == 0 and "Confirmed" in out


def test_cmd_verify_prop_pair_precondition_exit_one(matrix_file):
    code, out = run(
        [
            "verify",
            "--input",
            matrix_file(CONNECTED),
            "--claim",
            "prop-pair",
            "--u",
            "x1",
            "--v",
            "x2",
        ]
    )
    assert code == 1 and "PreconditionNotMet" in out


def test_cmd_verify_prop_brackets(matrix_file):
    code, out = run(
        [
            "verify",
            "--input",
            matrix_file(ALL_ONES_OFF),
            "--claim",
            "prop-brackets",
            "--monomial",
            "x1 x2 x1",
        ]
    )
    assert code == 0 and "Confirmed" in out


def test_usage_error_exit_two(matrix_file):
    code, _ = run(["graph", "--input", matrix_file(CONNECTED)])  # missing --kind
    assert code == 2
    code, _ = run(["frobnicate"])
    assert code == 2
    code, _ = run(
        ["verify", "--input", matrix_file(CONNECTED), "--claim", "prop-pair", "--u", "x1"]
    )  # missing --v
    assert code == 2


def test_claim_without_its_monomial_exits_two(matrix_file, capsys):
    code, out = run(["verify", "--input", matrix_file(CONNECTED), "--claim", "prop-brackets"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "usage error: prop-brackets needs --monomial\n"


def test_negative_cap_is_usage_error(matrix_file, capsys):
    # a negative cap is a malformed argument, not a guardrail hit
    path = matrix_file(CONNECTED)
    for cap in ("-1", "-40"):
        for argv in (["dim", "--input", path, "--degree", "1,1"],
                     ["ismember", "--input", path, "--monomial", "x2 x1", "--lie", "braided"],
                     ["verify", "--input", path, "--claim", "thm-equiv"]):
            code, out = run(argv + ["--max-terms", cap])
            assert (code, out) == (2, "")
            err = capsys.readouterr().err
            assert f"argument --max-terms: must be an integer >= 0, got {cap}" in err
            assert "inconclusive" not in err
    code, _ = run(["dim", "--input", path, "--degree", "1,1", "--max-terms", "x"])
    assert code == 2
    assert "argument --max-terms: invalid int value: 'x'" in capsys.readouterr().err


def test_zero_cap_is_inconclusive(matrix_file, capsys):
    code, out = run(["dim", "--input", matrix_file(CONNECTED), "--degree", "1,1", "--max-terms", "0"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "inconclusive: elimination at degree (1, 1): needs 4 entries, cap is 0\n"
    )


def test_guardrail_exit_three(matrix_file):
    code, _ = run(
        ["dim", "--input", matrix_file(CONNECTED), "--degree", "3,3", "--max-terms", "4"]
    )
    assert code == 3
    code, out = run(
        [
            "verify",
            "--input",
            matrix_file(CONNECTED),
            "--claim",
            "thm-equiv",
            "--max-terms",
            "1",
        ]
    )
    assert code == 3 and "Inconclusive" in out


def test_bad_file_exit_four(tmp_path):
    # input errors exit 4; 1 is left to Counterexample and PreconditionNotMet
    code, _ = run(["dim", "--input", str(tmp_path / "missing.json"), "--degree", "1"])
    assert code == 4


def test_boolean_fields_exit_four(matrix_file):
    path = matrix_file('{"n": true, "cyclotomic_order": true, "q": [["2"]]}')
    for argv in (["dim", "--input", path, "--degree", "1"],
                 ["graph", "--input", path, "--kind", "pure"]):
        assert run(argv) == (4, "")


@pytest.mark.parametrize("doc, argv, message", [
    ('{"n":1,"cyclotomic_order":1,"q":[["2x"]]}', ["dim", "--degree", "1"],
     "entry (1,1): unexpected character 'x' in scalar literal"),
    (CONNECTED, ["ismember", "--monomial", "x1 y2", "--lie", "minus"],
     "bad monomial token 'y2' (expected x<digits>)"),
    (CONNECTED, ["dim", "--degree", "1,a"], "bad degree '1,a' (expected comma-separated integers)"),
    (CONNECTED, ["bracket", "--expr", "[x1,x2", "--lie", "minus"], "expected ']' to close bracket"),
    (CONNECTED, ["bracket", "--expr", "[x0,x1]", "--lie", "minus"], "generator index must be >= 1, got x0"),
    (CONNECTED, ["verify", "--claim", "thm-maxsupport", "--max-degree", "-1"],
     "d_max must be at least k=2, the size of the largest pure component "
     "(a word with k distinct generators has length >= k)"),
    ("[" * 100_000, ["dim", "--degree", "1"], "matrix document nests too deeply to decode"),
], ids=["literal", "monomial", "degree", "bracket", "generator-zero", "negative-max-degree", "deep-nesting"])
def test_input_errors_exit_four(matrix_file, capsys, doc, argv, message):
    code, out = run(argv[:1] + ["--input", matrix_file(doc)] + argv[1:])
    assert (code, out) == (4, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("doc, argv, code, message", [
    ('{"n":1,"cyclotomic_order":1,"q":[["\\u0662"]]}', ["dim", "--degree", "1"], 4,
     "entry (1,1): unexpected character '٢' in scalar literal"),
    (CONNECTED, ["ismember", "--monomial", "x١ x2", "--lie", "minus"], 4,
     "bad monomial token 'x١' (expected x<digits>)"),
    (CONNECTED, ["bracket", "--expr", "[x١,x2]", "--lie", "minus"], 4,
     "unexpected input 'x١,x2]' in bracket expression"),
    (CONNECTED, ["dim", "--degree", "1_0,1"], 4, "bad degree '1_0,1' (expected comma-separated integers)"),
    (CONNECTED, ["dim", "--degree", "+1,1"], 4, "bad degree '+1,1' (expected comma-separated integers)"),
    (CONNECTED, ["dim", "--degree", "١,1"], 4, "bad degree '١,1' (expected comma-separated integers)"),
    (CONNECTED, ["dim", "--degree", "1,1", "--max-terms", "1_0"], 2,
     "argument --max-terms: invalid int value: '1_0'"),
    (CONNECTED, ["dim", "--degree", "1,1", "--max-terms", "+1"], 2,
     "argument --max-terms: invalid int value: '+1'"),
    (CONNECTED, ["dim", "--degree", "1,1", "--max-terms", "١"], 2,
     "argument --max-terms: invalid int value: '١'"),
    (CONNECTED, ["verify", "--claim", "thm-maxsupport", "--max-degree", "1_0"], 2,
     "argument --max-degree: invalid int value: '1_0'"),
    (CONNECTED, ["verify", "--claim", "thm-maxsupport", "--max-degree", "+3"], 2,
     "argument --max-degree: invalid int value: '+3'"),
    (CONNECTED, ["verify", "--claim", "thm-maxsupport", "--max-degree", "١"], 2,
     "argument --max-degree: invalid int value: '١'"),
], ids=["literal", "monomial", "bracket", "degree-underscore", "degree-plus", "degree-arabic",
        "max-terms-underscore", "max-terms-plus", "max-terms-arabic",
        "max-degree-underscore", "max-degree-plus", "max-degree-arabic"])
def test_parsers_take_ascii_digits_only(matrix_file, capsys, doc, argv, code, message):
    # \d and int() also read non-ASCII digits, and int() takes "+1" and "1_0";
    # a bad value in the input is bad input (4), a bad option value a usage error (2)
    assert run(argv[:1] + ["--input", matrix_file(doc)] + argv[1:]) == (code, "")
    err = capsys.readouterr().err
    if code == 4:
        assert err == f"error: {message}\n"
    else:
        assert err.startswith("usage: ") and err.endswith(f": error: {message}\n")


def test_degree_zero_has_one_message(matrix_file, capsys):
    message = "operation needs degree >= 1, got a degree-0 element"
    B = rational_matrix([[2, 2], [2, 2]])
    for call in (lambda: basis_of_degree(B, (0, 0)),
                 lambda: symmetrizer_rank_oracle(B, (0, 0)),
                 lambda: lie_span(B, (0, 0), BRAIDED),
                 lambda: lie_span(B, (0, 0), MINUS),
                 lambda: pairing_vector(B, FreeElement.unit(2, 1))):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    code, out = run(["dim", "--input", matrix_file(CONNECTED), "--degree", "0,0"])
    assert (code, out) == (4, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_max_support_bound_floor(matrix_file, capsys):
    # CONNECTED is one pure component of size 2: degree 1 is an input error,
    # and a bound of 60 ends once x1 x2 is a member
    path = matrix_file(CONNECTED)
    code, out = run(["verify", "--input", path, "--claim", "thm-maxsupport", "--max-degree", "1"])
    assert (code, out) == (4, "")
    assert capsys.readouterr().err.startswith("error: d_max must be at least k=2")
    code, out = run(["verify", "--input", path, "--claim", "thm-maxsupport", "--max-degree", "60"])
    assert code == 0 and out.endswith(" Confirmed\n")


def test_stdout_byte_identical(matrix_file):
    path = matrix_file(DISCONNECTED)
    for argv in (
        ["graph", "--input", path, "--kind", "augmented", "--dot", "--annotate"],
        ["components", "--input", path, "--kind", "pure"],
        ["verify", "--input", path, "--claim", "thm-maxsupport"],
        ["ismember", "--input", path, "--monomial", "x1 x2", "--lie", "braided"],
    ):
        assert run(argv) == run(argv)


# -- golden outputs --------------------------------------------------------------
#
# Full stdout on a connected order-8 matrix (q12 q21 = z^5), so that a
# change in witness coefficients or their order shows.

GOLDEN_MATRIX = '{"n":2,"cyclotomic_order":8,"q":[["z","z^2"],["z^3","-1"]]}'

GOLDEN = [
    (
        ["ismember", "--monomial", "x2 x1 x1", "--lie", "braided"],
        "Member\n"
        "witness: (1/4*z^3 + 1/4*z^2 + 1/4*z + 1/4) * [x2,[x1,x1]]\n"
        "witness: (1/2*z^3) * [x1,[x2,x1]]\n"
        "witness: (-1/2*z + 1/2) * [x1,[x1,x2]]\n",
    ),
    (
        ["ismember", "--monomial", "x1 x2 x1 x2", "--lie", "braided"],
        "Member\n"
        "witness: (-1/4*z^3 + 1/4*z^2 - 1/4*z + 1/4) * [x2,[x1,[x2,x1]]]\n"
        "witness: (-1/2*z^3) * [x2,[x1,[x1,x2]]]\n"
        "witness: (-1/2*z^3 - 1/2*z) * [x1,[x2,[x1,x2]]]\n",
    ),
    (
        ["bracket", "--expr", "[x1,[x2,x1]]", "--lie", "braided", "--nichols"],
        "1 * x1 x1 x2 + (-z^2 + 1) * x1 x2 x1 + (-z^2) * x2 x1 x1\n"
        "zero in Nichols algebra: no\n",
    ),
    (
        ["verify", "--claim", "thm-equiv", "--json"],
        "{\n"
        '  "claim": "thm-equiv",\n'
        '  "digest": "3ab32f42365e",\n'
        '  "evidence": {\n'
        '    "ascending_word_member": true,\n'
        '    "descending_word_member": true,\n'
        '    "full_support_member": true,\n'
        '    "full_support_witness": "x1 x2",\n'
        '    "graph_connected": true\n'
        "  },\n"
        '  "instance": "n=2 order=8 d_max=2",\n'
        '  "verdict": "Confirmed"\n'
        "}\n",
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[g[0][0] + str(i) for i, g in enumerate(GOLDEN)])
def test_golden_stdout(matrix_file, argv, expected):
    assert run(argv[:1] + ["--input", matrix_file(GOLDEN_MATRIX)] + argv[1:]) == (0, expected)


GOLDEN_MEMBERS = {argv[2]: (argv[4], expected) for argv, expected in GOLDEN if argv[0] == "ismember"}


@pytest.mark.parametrize("monomial", sorted(GOLDEN_MEMBERS))
def test_golden_witnesses_rebuild_their_monomials(monomial):
    B = BraidingMatrix.from_json(GOLDEN_MATRIX)
    kind, expected = GOLDEN_MEMBERS[monomial]
    assert_witness_lines_rebuild(B, parse_monomial(monomial, B.n), kind, expected.splitlines()[1:])


# Every claim reaches Inconclusive through the same guardrail text:
# "<what> at degree <alpha> ...: needs N entries, cap is C".
CAPPED = [
    (CONNECTED, ["--claim", "thm-equiv"], "pairing vector at degree (1, 1): needs 2 entries, cap is 1"),
    (CONNECTED, ["--claim", "thm-maxsupport"],
     "pairing vector at degree (1, 1): needs 2 entries, cap is 1"),
    (ALL_ONES_OFF, ["--claim", "prop-pair", "--u", "x1 x1", "--v", "x2"],
     "pairing descent at degree (2, 1): needs 3 entries, cap is 1"),
    (ALL_ONES_OFF, ["--claim", "prop-brackets", "--monomial", "x1 x2 x1"],
     "bracketing descent at degree (2, 1) (2 bracketings x 3 dual words): needs 6 entries, cap is 1"),
]


@pytest.mark.parametrize("doc, args, guardrail", CAPPED, ids=[c[1][1] for c in CAPPED])
def test_cmd_verify_inconclusive_evidence(matrix_file, doc, args, guardrail):
    code, out = run(["verify", "--input", matrix_file(doc), "--json", "--max-terms", "1"] + args)
    assert code == 3
    report = json.loads(out)
    assert report["verdict"] == "Inconclusive"
    assert report["evidence"] == {"guardrail": guardrail}
