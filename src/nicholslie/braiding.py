"""Braiding matrices and the bicharacter they induce on Z^n.

A braiding matrix is an n x n array of nonzero scalars q_ij.  It
determines a bicharacter chi on Z^n x Z^n by chi(e_i, e_j) = q_ij
extended multiplicatively in both slots, the pairwise products
p~_ij = q_ij * q_ji that drive the pure Dynkin graph, and the braiding
coefficients used by brackets and skew derivations.

Matrices are immutable after validation and safe to share.
"""

from __future__ import annotations

import json

from .scalar import Scalar, parse_scalar

__all__ = ["InvalidMatrixError", "BraidingMatrix"]


class InvalidMatrixError(ValueError):
    """Matrix data that does not define a diagonal braiding."""


def _read_document(text: str, what: str, fields) -> dict:
    """The JSON object of a matrix or graph document, with each of fields
    present and a positive int n; InvalidMatrixError otherwise, also for
    nesting past the decoder's recursion limit."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidMatrixError(f"{what} document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InvalidMatrixError(f"{what} document nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise InvalidMatrixError(f"{what} document must be a JSON object")
    for key in fields:
        if key not in data:
            raise InvalidMatrixError(f"{what} document missing field {key!r}")
    n = data["n"]
    # type(), not isinstance(): JSON true/false load as bool, an int subclass
    if type(n) is not int or n < 1:
        raise InvalidMatrixError(f"field 'n' must be a positive integer, got {n!r}")
    return data


def _inverse_rows(B) -> tuple:
    # an entry equal to 1 is not inverted: its inverse is the shared one
    return tuple(tuple(Scalar.one(B.order) if e.is_one() else e.inv() for e in row) for row in B._rows)


def _chi_groups(B) -> tuple:
    """The entries q_ij != 1 grouped by value, as (value, its cells (i, j),
    0-based), in order of first appearance; values compare as (num, den)."""
    groups = {}
    for i, row in enumerate(B._rows):
        for j, e in enumerate(row):
            if not e.is_one():
                groups.setdefault((e.num, e.den), (e, []))[1].append((i, j))
    return tuple((e, tuple(cells)) for e, cells in groups.values())


class BraidingMatrix:
    """Validated matrix of nonzero scalars; entries are 1-based.

    It also keeps memos that depend on its entries alone, so that every
    computation on the matrix shares them.  _lie_span_cache and
    _pairing_row_cache are made with the matrix; _inv_rows, _chi_groups
    (the entries != 1 grouped by value, which chi reads), _json,
    _descent_table, _shuffle_cache and _shape_cache are made on first use,
    through _first_use, so a matrix that never needs one allocates none.
    """

    __slots__ = (
        "n", "order", "_rows", "_inv_rows", "_chi_groups", "_json", "_lie_span_cache",
        "_pairing_row_cache", "_descent_table", "_shuffle_cache", "_shape_cache",
    )

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n < 1:
            raise InvalidMatrixError("matrix must have rank at least 1")
        for i, row in enumerate(rows, start=1):
            if len(row) != n:
                raise InvalidMatrixError(
                    f"row {i} has {len(row)} entries, expected {n} (matrix must be square)"
                )
        for i, row in enumerate(rows, start=1):
            for j, entry in enumerate(row, start=1):
                if not isinstance(entry, Scalar):
                    raise InvalidMatrixError(f"entry ({i},{j}) is not a scalar")
                order = rows[0][0].order  # a Scalar: entry (1,1) was checked first
                if entry.order != order:
                    raise InvalidMatrixError(
                        f"entry ({i},{j}) has cyclotomic order {entry.order}, expected {order}"
                    )
                if entry.is_zero():
                    raise InvalidMatrixError(f"entry ({i},{j}) is zero; entries must lie in F*")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_inv_rows", None)
        object.__setattr__(self, "_chi_groups", None)
        object.__setattr__(self, "_json", None)
        object.__setattr__(self, "_lie_span_cache", {})
        object.__setattr__(self, "_pairing_row_cache", {})
        object.__setattr__(self, "_descent_table", None)
        object.__setattr__(self, "_shuffle_cache", None)
        object.__setattr__(self, "_shape_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("BraidingMatrix is immutable")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_strings(cls, rows, order: int) -> "BraidingMatrix":
        """Build from scalar literals (see the scalar grammar)."""
        return cls([[parse_scalar(s, order) for s in row] for row in rows])

    @classmethod
    def from_json(cls, text: str) -> "BraidingMatrix":
        """Parse the matrix document format:

        {"n": 2, "cyclotomic_order": 8, "q": [["-1", "z"], ["z^-1", "-1"]]}
        """
        data = _read_document(text, "matrix", ("n", "cyclotomic_order", "q"))
        n, order = data["n"], data["cyclotomic_order"]
        if type(order) is not int or order < 1:
            raise InvalidMatrixError(
                f"field 'cyclotomic_order' must be an integer >= 1, got {order!r}"
            )
        q = data["q"]
        if not isinstance(q, list) or len(q) != n or any(
            not isinstance(row, list) or len(row) != n for row in q
        ):
            raise InvalidMatrixError(f"field 'q' must be an {n} x {n} array of scalar strings")
        rows = []
        for i, row in enumerate(q, start=1):
            parsed = []
            for j, cell in enumerate(row, start=1):
                if not isinstance(cell, str):
                    raise InvalidMatrixError(f"entry ({i},{j}) must be a string scalar literal")
                try:
                    parsed.append(parse_scalar(cell, order))
                except ValueError as exc:
                    raise InvalidMatrixError(f"entry ({i},{j}): {exc}") from exc
            rows.append(parsed)
        return cls(rows)

    @classmethod
    def from_file(cls, path) -> "BraidingMatrix":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def to_json(self) -> str:
        """Canonical document form, stable across runs and usable as a digest key."""
        return self._first_use("_json", lambda B: json.dumps(
            {"n": B.n, "cyclotomic_order": B.order, "q": [[str(e) for e in row] for row in B._rows]},
            sort_keys=True, separators=(",", ":")))

    # -- entry access ----------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        """q_ij, 1-based."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i},{j}) out of range for rank {self.n}")
        return self._rows[i - 1][j - 1]

    def inverse_row(self, i: int):
        """q_ij^-1 for j=1..n, made once per matrix; the integer tables of
        the descent and of the Lie-span builds are read off these."""
        return self._first_use("_inv_rows", _inverse_rows)[i - 1]

    def _first_use(self, name: str, make):
        """The memo in slot name, made by make(self) on first use and kept."""
        memo = getattr(self, name)
        if memo is None:
            memo = make(self)
            object.__setattr__(self, name, memo)
        return memo

    # -- the bicharacter and friends --------------------------------------

    def chi(self, alpha, beta) -> Scalar:
        """chi(alpha, beta) = prod q_ij^(alpha_i * beta_j) over Z^n x Z^n,
        taken as one power per distinct entry q != 1, of the summed
        exponents of its cells; an entry equal to 1 is skipped."""
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError(
                f"degree vectors must have length {self.n}, got {len(alpha)} and {len(beta)}"
            )
        out = None  # the running 1, never multiplied
        for value, cells in self._first_use("_chi_groups", _chi_groups):
            e = sum(alpha[i] * beta[j] for i, j in cells)
            if e:
                f = value ** e
                out = f if out is None else out * f
        return Scalar.one(self.order) if out is None else out

    def p_tilde(self, i: int, j: int) -> Scalar:
        """q_ij * q_ji; equal to 1 exactly when {i,j} is not a pure edge."""
        return self.entry(i, j) * self.entry(j, i)

    def transpose(self) -> "BraidingMatrix":
        return BraidingMatrix(
            [[self._rows[j][i] for j in range(self.n)] for i in range(self.n)]
        )

    # -- misc -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BraidingMatrix):
            return NotImplemented
        return self.order == other.order and self._rows == other._rows

    def __hash__(self):
        return hash((self.order, self._rows))

    def __repr__(self):
        return f"BraidingMatrix(n={self.n}, order={self.order})"
