"""Command-line front end.

Subcommands: graph, components, bracket, ismember, dim, verify.  All
output is deterministic; exit status is 0 for success, 1 for a
counterexample or failed precondition, 2 for usage errors, 3 when a
guardrail made the computation inconclusive, 4 for bad input; 141 (the
console script only) when stdout is a closed pipe.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache

from .braiding import BraidingMatrix, InvalidMatrixError
from .freealg import BRAIDED, MINUS, apply_bracketing, format_bracketing, multinomial, word_degree
from .graphs import AUGMENTED, PURE, DynkinGraph, build_graph, components
from .lie import MEMBER, monomial_membership
from .nichols import GuardrailExceeded, _check_degree, _guard, basis_of_degree, is_zero_in_nichols
from .verify import (
    CONFIRMED,
    INCONCLUSIVE,
    check_prop_all_bracketings,
    check_prop_disconnected_pair,
    check_theorem_equivalences,
    check_theorem_max_support,
)

__all__ = [
    "BracketParseError",
    "parse_matrix_file",
    "parse_bracket_expr",
    "parse_monomial",
    "parse_degree",
    "emit_dot",
    "main",
    "console_main",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INPUT = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class BracketParseError(ValueError):
    """Malformed bracket expression."""


class _UsageError(ValueError):
    """Claim-specific arguments missing or inconsistent."""


def parse_matrix_file(path) -> BraidingMatrix:
    try:
        return BraidingMatrix.from_file(path)
    except OSError as exc:
        raise InvalidMatrixError(f"cannot read matrix file {path}: {exc}") from exc


# -- bracket expressions -------------------------------------------------
#
#   expr := "x" digits | "[" expr "," expr "]"
#
# An expression parses to the (tree, word) pair that apply_bracketing and
# format_bracketing take; the bracket kind is supplied separately, so one
# expression serves both brackets.

_BRACKET_TOKEN = re.compile(r"\s*(?:x([0-9]+)|([\[\],]))")  # ASCII digits only, not \d


def parse_bracket_expr(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _BRACKET_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise BracketParseError(
                    f"unexpected input {text[pos:].strip()[:10]!r} in bracket expression"
                )
            break
        tokens.append(int(m.group(1)) if m.group(1) is not None else m.group(2))
        pos = m.end()

    # Left to right with an explicit stack, so nesting costs no recursion:
    # each open bracket holds its left operand once that is read.
    stack, at = [], 0
    while True:
        while tokens[at:at + 1] == ["["]:
            stack.append([])
            at += 1
        if at >= len(tokens):
            raise BracketParseError("unexpected end of bracket expression")
        tok = tokens[at]
        if not isinstance(tok, int):
            raise BracketParseError(f"unexpected token {tok!r}")
        if tok < 1:
            raise BracketParseError(f"generator index must be >= 1, got x{tok}")
        tree, at = None, at + 1
        while stack and stack[-1]:
            if tokens[at:at + 1] != ["]"]:
                raise BracketParseError("expected ']' to close bracket")
            tree, at = (stack.pop()[0], tree), at + 1
        if not stack:
            break
        if tokens[at:at + 1] != [","]:
            raise BracketParseError("expected ',' inside bracket")
        stack[-1].append(tree)
        at += 1
    if at != len(tokens):
        raise BracketParseError("trailing input after bracket expression")
    return tree, tuple(tok for tok in tokens if isinstance(tok, int))


def parse_monomial(text: str, n: int):
    """Whitespace-separated x<digits> tokens, left-to-right product."""
    word = []
    for token in text.split():
        m = re.fullmatch(r"x([0-9]+)", token)
        if m is None:
            raise BracketParseError(f"bad monomial token {token!r} (expected x<digits>)")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise BracketParseError(f"generator x{i} out of range for rank {n}")
        word.append(i)
    if not word:
        raise BracketParseError("empty monomial")
    return tuple(word)


_INT = re.compile(r"-?[0-9]+")  # int() alone would also take "+1", "1_0" and non-ASCII digits


def parse_degree(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if not all(_INT.fullmatch(p) for p in parts):
        raise BracketParseError(f"bad degree {text!r} (expected comma-separated integers)")
    alpha = tuple(int(p) for p in parts)
    if len(alpha) != n:
        raise BracketParseError(f"degree needs {n} components, got {len(alpha)}")
    if any(a < 0 for a in alpha):
        raise BracketParseError(f"degree components must be nonnegative, got {alpha}")
    return alpha


# -- DOT emission ----------------------------------------------------------


def emit_dot(G: DynkinGraph, B: BraidingMatrix = None, annotate: bool = False) -> str:
    """Undirected DOT text: vertices in order, edges sorted; annotated
    edges carry the p~ value (pure) or the (q_ij, q_ji) pair (augmented)."""
    if annotate and B is None:
        raise ValueError("annotation needs the braiding matrix")
    lines = ["graph dynkin {"]
    for v in G.sorted_vertices():
        lines.append(f"  v{v};")
    for i, j in G.sorted_edges():
        if annotate:
            if G.kind == PURE:
                label = str(B.p_tilde(i, j))
            else:
                label = f"({B.entry(i, j)}, {B.entry(j, i)})"
            lines.append(f'  v{i} -- v{j} [label="{label}"];')
        else:
            lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- dispatch ---------------------------------------------------------------


def _int(text: str) -> int:
    """An integer option value: what _INT matches, as parse_degree reads a component."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _cap(text: str) -> int:
    """--max-terms value: an integer >= 0 (0 refuses every computation)."""
    cap = _int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {cap}")
    return cap


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nicholslie",
        description="Exact computations in Nichols algebras of diagonal type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="matrix file (JSON document)")
        p.add_argument("--max-terms", type=_cap, default=None,
                       help="guardrail cap on elimination matrix entries")

    p_graph = sub.add_parser("graph", help="print a Dynkin graph")
    p_graph.set_defaults(handler=_cmd_graph)
    add_common(p_graph)
    p_graph.add_argument("--kind", choices=[PURE, AUGMENTED], required=True)
    p_graph.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p_graph.add_argument("--annotate", action="store_true", help="label edges with braiding data")

    p_comp = sub.add_parser("components", help="print connected components")
    p_comp.set_defaults(handler=_cmd_components)
    add_common(p_comp)
    p_comp.add_argument("--kind", choices=[PURE, AUGMENTED], required=True)

    p_br = sub.add_parser("bracket", help="evaluate a bracket expression")
    p_br.set_defaults(handler=_cmd_bracket)
    add_common(p_br)
    p_br.add_argument("--expr", required=True, help="e.g. \"[x1,[x2,x3]]\"")
    p_br.add_argument("--lie", choices=[BRAIDED, MINUS], required=True)
    p_br.add_argument("--nichols", action="store_true",
                      help="also report zeroness of the value in B(V)")

    p_mem = sub.add_parser("ismember", help="monomial membership in the Lie span")
    p_mem.set_defaults(handler=_cmd_ismember)
    add_common(p_mem)
    p_mem.add_argument("--monomial", required=True, help="e.g. \"x2 x1\"")
    p_mem.add_argument("--lie", choices=[BRAIDED, MINUS], required=True)

    p_dim = sub.add_parser("dim", help="dimension of B(V) at a multidegree")
    p_dim.set_defaults(handler=_cmd_dim)
    add_common(p_dim)
    p_dim.add_argument("--degree", required=True, help="comma-separated, e.g. \"1,2\"")

    p_ver = sub.add_parser("verify", help="check one claim on the matrix")
    p_ver.set_defaults(handler=_cmd_verify)
    add_common(p_ver)
    p_ver.add_argument(
        "--claim",
        choices=["thm-equiv", "thm-maxsupport", "prop-pair", "prop-brackets"],
        required=True,
    )
    p_ver.add_argument("--max-degree", type=_int, default=None)
    p_ver.add_argument("--u", help="monomial for prop-pair")
    p_ver.add_argument("--v", help="monomial for prop-pair")
    p_ver.add_argument("--monomial", help="monomial for prop-brackets")
    p_ver.add_argument("--json", action="store_true", help="structured report dump")
    return parser


def _cmd_graph(B, args, out):
    G = build_graph(B, args.kind)
    if args.dot:
        out.write(emit_dot(G, B, annotate=args.annotate))
        return EXIT_OK
    out.write("vertices: " + " ".join(str(v) for v in G.sorted_vertices()) + "\n")
    for i, j in G.sorted_edges():
        if args.annotate:
            if G.kind == PURE:
                out.write(f"edge {i} {j} label={B.p_tilde(i, j)}\n")
            else:
                out.write(f"edge {i} {j} labels={B.entry(i, j)},{B.entry(j, i)}\n")
        else:
            out.write(f"edge {i} {j}\n")
    return EXIT_OK


def _cmd_components(B, args, out):
    G = build_graph(B, args.kind)
    for comp in components(G):
        out.write(" ".join(str(v) for v in comp) + "\n")
    return EXIT_OK


def _cmd_bracket(B, args, out):
    tree, word = parse_bracket_expr(args.expr)
    for i in word:
        if i > B.n:
            raise BracketParseError(f"generator x{i} out of range for rank {B.n}")
    deg = _check_degree(B, word_degree(word, B.n))
    # the expansion has at most multinomial(deg) words, and the descent
    # pairs as many dual words
    what = "pairing descent" if args.nichols else "bracket expansion"
    _guard(multinomial(deg), args.max_terms, "{} at degree {}", what, deg)
    elem = apply_bracketing(B, tree, word, args.lie)
    out.write(str(elem) + "\n")
    if args.nichols:
        zero = is_zero_in_nichols(B, elem)
        out.write(f"zero in Nichols algebra: {'yes' if zero else 'no'}\n")
    return EXIT_OK


def _cmd_ismember(B, args, out):
    word = parse_monomial(args.monomial, B.n)
    report = monomial_membership(B, word, args.lie, args.max_terms)
    out.write(report.status + "\n")
    if report.status == MEMBER:
        for coeff, (tree, gen_word) in zip(report.witness, report.span.generators_used):
            if coeff:
                out.write(f"witness: ({coeff}) * {format_bracketing(tree, gen_word)}\n")
    return EXIT_OK


def _cmd_dim(B, args, out):
    alpha = parse_degree(args.degree, B.n)
    _, rank = basis_of_degree(B, alpha, args.max_terms)
    out.write(f"{rank}\n")
    return EXIT_OK


def _cmd_verify(B, args, out):
    if args.claim == "thm-equiv":
        report = check_theorem_equivalences(B, args.max_degree, args.max_terms)
    elif args.claim == "thm-maxsupport":
        report = check_theorem_max_support(B, args.max_degree, args.max_terms)
    elif args.claim == "prop-pair":
        if not args.u or not args.v:
            raise _UsageError("prop-pair needs --u and --v monomials")
        u = parse_monomial(args.u, B.n)
        v = parse_monomial(args.v, B.n)
        report = check_prop_disconnected_pair(B, u, v, args.max_terms)
    else:
        if not args.monomial:
            raise _UsageError("prop-brackets needs --monomial")
        word = parse_monomial(args.monomial, B.n)
        report = check_prop_all_bracketings(B, word, args.max_terms)
    if args.json:
        out.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    else:
        out.write(report.line() + "\n")
    if report.verdict == CONFIRMED:
        return EXIT_OK
    if report.verdict == INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_FAILURE


def main(argv=None, out=None) -> int:
    """Run one command; returns the exit status instead of raising."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        B = parse_matrix_file(args.input)
        return args.handler(B, args, out)
    except GuardrailExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # InvalidMatrixError and BracketParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main():
    """main() on sys.stdout; a closed stdout exits EXIT_BROKEN_PIPE quietly."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # on os.devnull, the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    raise SystemExit(status)


if __name__ == "__main__":
    console_main()
