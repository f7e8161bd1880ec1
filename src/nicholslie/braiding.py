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


class BraidingMatrix:
    """Validated matrix of nonzero scalars; entries are 1-based."""

    __slots__ = ("n", "order", "_rows", "_inv_rows", "_inv_is_one", "_word_pairing_cache")

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
        order = rows[0][0].order
        for i, row in enumerate(rows, start=1):
            for j, entry in enumerate(row, start=1):
                if not isinstance(entry, Scalar):
                    raise InvalidMatrixError(f"entry ({i},{j}) is not a scalar")
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
        object.__setattr__(self, "_inv_is_one", None)
        object.__setattr__(self, "_word_pairing_cache", {})

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
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidMatrixError(f"matrix document is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidMatrixError("matrix document must be a JSON object")
        for key in ("n", "cyclotomic_order", "q"):
            if key not in data:
                raise InvalidMatrixError(f"matrix document missing field {key!r}")
        n = data["n"]
        order = data["cyclotomic_order"]
        if not isinstance(n, int) or n < 1:
            raise InvalidMatrixError(f"field 'n' must be a positive integer, got {n!r}")
        if not isinstance(order, int) or order < 1:
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
        """Canonical document form (stable across runs, usable as a digest key)."""
        doc = {
            "n": self.n,
            "cyclotomic_order": self.order,
            "q": [[str(self._rows[i][j]) for j in range(self.n)] for i in range(self.n)],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    # -- entry access ----------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        """q_ij, 1-based."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i},{j}) out of range for rank {self.n}")
        return self._rows[i - 1][j - 1]

    def _build_inverse_tables(self):
        inv = tuple(tuple(e.inv() for e in row) for row in self._rows)
        flags = tuple(tuple(e.is_one() for e in row) for row in inv)
        object.__setattr__(self, "_inv_rows", inv)
        object.__setattr__(self, "_inv_is_one", flags)

    def inverse_row(self, i: int):
        """(q_ij^-1 for j=1..n, is-one flags); hot-loop accessor."""
        if self._inv_rows is None:
            self._build_inverse_tables()
        return self._inv_rows[i - 1], self._inv_is_one[i - 1]

    # -- the bicharacter and friends --------------------------------------

    def chi(self, alpha, beta) -> Scalar:
        """chi(alpha, beta) = prod q_ij^(alpha_i * beta_j) over Z^n x Z^n."""
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError(
                f"degree vectors must have length {self.n}, got {len(alpha)} and {len(beta)}"
            )
        out = Scalar.one(self.order)
        for i, a in enumerate(alpha):
            if not a:
                continue
            row = self._rows[i]
            for j, b in enumerate(beta):
                if b:
                    out = out * row[j] ** (a * b)
        return out

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
