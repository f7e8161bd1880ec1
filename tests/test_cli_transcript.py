"""Golden CLI transcript: stdout, stderr and exit status of a fixed command
corpus over generated matrix files must stay byte-identical.

The matrix files are generated deterministically (orders 1, 3 and 8,
ranks 2 and 3, every third file with a disconnected pure graph) and
written to a temporary directory; each command runs in-process through
cli.main.  After an intended output change, regenerate the committed
transcript with

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/data/cli_transcript.txt
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from nicholslie.cli import main

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.txt"

ORDERS = (1, 3, 8)
RANKS = (2, 3)
FILES_PER_AMBIENT = 4

_RATIONAL = ("2", "-1", "3", "1/2", "-2", "-1/3")


def _value(rng, order):
    if order == 1:
        return rng.choice(_RATIONAL)
    return rng.choice(("z", "-z", "z^2", "-1", "z^-1", "2", "z^3", "-z^2"))


def _inverse(value, order):
    # inverses of the literals _value draws, so that q_ij * q_ji = 1
    if order == 1:
        return {"1": "1", "2": "1/2", "-1": "-1", "3": "1/3", "1/2": "2", "-2": "-1/2", "-1/3": "-3"}[value]
    return {
        "1": "1", "z": "z^-1", "-z": "-z^-1", "z^2": "z^-2", "-1": "-1",
        "z^-1": "z", "2": "1/2", "z^3": "z^-3", "-z^2": "-z^-2",
    }[value]


def matrix_documents():
    """(file name, JSON text, rank) of every corpus matrix, in order."""
    rng = random.Random(3)
    out = []
    index = 0
    for order in ORDERS:
        for n in RANKS:
            for _ in range(FILES_PER_AMBIENT):
                q = [[_value(rng, order) for _ in range(n)] for _ in range(n)]
                if index % 3 == 2:
                    # vertex n keeps no pure edge: q_in * q_ni = 1, and
                    # every other time no augmented edge either
                    for i in range(n - 1):
                        if index % 6 == 5:
                            q[i][n - 1] = "1"
                        q[n - 1][i] = _inverse(q[i][n - 1], order)
                doc = json.dumps({"n": n, "cyclotomic_order": order, "q": q})
                out.append((f"m{index:02d}.json", doc, n))
                index += 1
    return out


def _word(rng, n, length):
    return " ".join(f"x{rng.randint(1, n)}" for _ in range(length))


def _bracket_expr(rng, n):
    a, b, c = (f"x{rng.randint(1, n)}" for _ in range(3))
    return rng.choice((f"[{a},[{b},{c}]]", f"[[{a},{b}],{c}]"))


def commands(name, n, rng):
    """The corpus commands on one matrix file, as argv lists."""
    inp = ["--input", name]
    last = f"x{n}"
    cmds = []
    for kind in ("pure", "augmented"):
        cmds.append(["graph"] + inp + ["--kind", kind, "--dot", "--annotate"])
        cmds.append(["components"] + inp + ["--kind", kind])
    degree = ",".join(["2"] + ["1"] * (n - 1))
    cmds.append(["dim"] + inp + ["--degree", degree])
    cmds.append(["dim"] + inp + ["--degree", degree, "--max-terms", "20"])
    for lie in ("braided", "minus"):
        for length in (3, 4):
            cmds.append(["ismember"] + inp + ["--monomial", _word(rng, n, length), "--lie", lie])
        cmds.append(["ismember"] + inp + ["--monomial", _word(rng, n, 3), "--lie", lie, "--max-terms", "4"])
        cmds.append(["bracket"] + inp + ["--expr", _bracket_expr(rng, n), "--lie", lie, "--nichols"])
    cmds.append(["verify"] + inp + ["--claim", "thm-equiv", "--json"])
    cmds.append(["verify"] + inp + ["--claim", "thm-maxsupport"])
    cmds.append(["verify"] + inp + ["--claim", "prop-brackets", "--monomial", f"x1 {last} x1"])
    cmds.append(["verify"] + inp + ["--claim", "prop-pair", "--u", "x1 x1", "--v", last])
    return cmds


def _lines(prefix, text):
    out = [prefix + line for line in text.split("\n")[:-1]]
    if not text.endswith("\n") and text:
        out.append(prefix + text.rsplit("\n", 1)[-1])
        out.append(f"{prefix}\\ no newline at end")
    return out


def transcript_blocks(directory):
    """One text block per command: the argv, exit status, stdout lines
    prefixed '> ' and stderr lines prefixed '2> '."""
    directory = Path(directory)
    rng = random.Random(5)
    blocks = []
    for name, doc, n in matrix_documents():
        (directory / name).write_text(doc, encoding="utf-8")
        for argv in commands(name, n, rng):
            run_argv = [str(directory / a) if a == name else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(run_argv, out=out)
            lines = ["$ " + " ".join(argv), f"exit {code}"]
            lines += _lines("> ", out.getvalue())
            lines += _lines("2> ", err.getvalue().replace(str(directory), "<dir>"))
            blocks.append("\n".join(lines) + "\n")
    return blocks


def test_cli_transcript_byte_identical(tmp_path):
    expected = TRANSCRIPT.read_text(encoding="utf-8").split("\n\n")
    got = "\n".join(transcript_blocks(tmp_path)).split("\n\n")
    for want, have in zip(expected, got):
        if want != have:
            command = want.split("\n", 1)[0]
            raise AssertionError(f"first differing command: {command}\nexpected:\n{want}\ngot:\n{have}")
    assert len(got) == len(expected), f"{len(got)} commands, transcript has {len(expected)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("\n".join(transcript_blocks(tmp)))
