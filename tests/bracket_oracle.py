"""Reference bracketing evaluation: the engine's former apply_bracketing.

It binds the leaves of a tree to FreeElement.generator elements and
applies the public braided_bracket or minus_bracket at every node, so
each node is a FreeElement whose degree is walked in full.  It is kept
as a test oracle for the word -> scalar map fold in nicholslie.freealg.
"""

from nicholslie.freealg import BRAIDED, FreeElement, braided_bracket, minus_bracket


def oracle_bracketing(B, tree, word, kind):
    """The bracketing of word by tree, one FreeElement per leaf and node."""
    letters = iter(word)

    def rec(t):
        if t is None:
            return FreeElement.generator(B.n, B.order, next(letters))
        left, right = rec(t[0]), rec(t[1])
        return braided_bracket(B, left, right) if kind == BRAIDED else minus_bracket(left, right)

    out = rec(tree)
    assert next(letters, None) is None, "tree has fewer leaves than the word"
    return out
