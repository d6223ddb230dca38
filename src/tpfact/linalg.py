"""Exact dense linear algebra over the rationals.

Matrices are square, immutable, and hold Fraction entries, so every
computation here is exact and equality means equality.  All indices on
the public surface are 1-based; row/column subsets are strictly
increasing tuples of 1-based indices.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (IndexOutOfRange, NotInG0, Singular, SizeMismatch,
                     ValidationError)


def scalar_from_str(text):
    """Parse "p" or "p/q" into a Fraction."""
    if not isinstance(text, str):
        raise ValidationError(f"rational literal {text!r} is not a string")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}") from exc
    return value


def scalar_to_str(value):
    """Canonical string form: reduced, positive denominator, "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def check_index_set(indices, n):
    """Validate a strictly increasing tuple of 1-based indices in [1, n]."""
    indices = tuple(indices)
    for a in indices:
        if not isinstance(a, int) or not 1 <= a <= n:
            raise IndexOutOfRange(f"index {a!r} outside [1, {n}]")
    if any(indices[k] >= indices[k + 1] for k in range(len(indices) - 1)):
        raise IndexOutOfRange(f"index set {indices} is not strictly increasing")
    return indices


class Matrix:
    """Immutable square matrix of Fractions."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(e) for e in row) for row in rows)
        n = len(rows)
        if n == 0:
            raise SizeMismatch("matrix must have size at least 1")
        if any(len(row) != n for row in rows):
            raise SizeMismatch("matrix must be square")
        self.n = n
        self.rows = rows

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries):
        entries = list(entries)
        n = len(entries)
        return cls([[Fraction(entries[i]) if i == j else Fraction(0)
                     for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside [1, {self.n}]^2")
        return self.rows[i - 1][j - 1]

    def transpose(self):
        return Matrix(tuple(zip(*self.rows)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise SizeMismatch(f"cannot multiply sizes {self.n} and {other.n}")
        cols = other.transpose().rows
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                       for row in self.rows])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(scalar_to_str(e) for e in row) for row in self.rows)
        return f"Matrix[{body}]"


def minor(x, row_set, col_set):
    """Minor with the given 1-based row and column subsets.

    Empty subsets give the empty minor, which is 1.  Uses Bareiss
    elimination on the submatrix; division steps are exact.
    """
    rows = check_index_set(row_set, x.n)
    cols = check_index_set(col_set, x.n)
    if len(rows) != len(cols):
        raise SizeMismatch(f"row set size {len(rows)} != column set size {len(cols)}")
    k = len(rows)
    if k == 0:
        return Fraction(1)
    m = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    sign = 1
    prev = Fraction(1)
    for c in range(k - 1):
        pivot = next((r for r in range(c, k) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, k):
            for c2 in range(c + 1, k):
                m[r][c2] = (m[r][c2] * m[c][c] - m[r][c] * m[c][c2]) / prev
            m[r][c] = Fraction(0)
        prev = m[c][c]
    return sign * m[k - 1][k - 1]


def det(x):
    full = tuple(range(1, x.n + 1))
    return minor(x, full, full)


def leading_principal_minors(x):
    return [minor(x, tuple(range(1, k + 1)), tuple(range(1, k + 1)))
            for k in range(1, x.n + 1)]


def ldu_decompose(x):
    """Gaussian LDU factors (L unit lower, D diagonal, U unit upper).

    Exists iff every leading principal minor is nonzero; the diagonal of
    D is the sequence of ratios of consecutive leading principal minors.
    """
    n = x.n
    work = [list(row) for row in x.rows]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        if work[c][c] == 0:
            raise NotInG0(f"leading principal minor of order {c + 1} vanishes")
        for r in range(c + 1, n):
            f = work[r][c] / work[c][c]
            lower[r][c] = f
            for c2 in range(c, n):
                work[r][c2] -= f * work[c][c2]
    d = [work[i][i] for i in range(n)]
    upper = [[work[i][j] / d[i] if j > i else Fraction(int(i == j))
              for j in range(n)] for i in range(n)]
    return Matrix(lower), Matrix.diagonal(d), Matrix(upper)


def inverse(x):
    """Inverse by Gauss-Jordan elimination with row pivoting."""
    n = x.n
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(x.rows)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot is None:
            raise Singular("matrix is not invertible")
        work[c], work[pivot] = work[pivot], work[c]
        p = work[c][c]
        work[c] = [e / p for e in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [e - f * g for e, g in zip(work[r], work[c])]
    return Matrix([row[n:] for row in work])


def matrix_to_json(x):
    return {"n": x.n,
            "entries": [[scalar_to_str(e) for e in row] for row in x.rows]}


def matrix_from_json(data):
    if not isinstance(data, dict) or "entries" not in data:
        raise ValidationError("matrix JSON must be an object with an 'entries' field")
    entries = data["entries"]
    if not isinstance(entries, list) or not all(
            isinstance(row, list) for row in entries):
        raise SizeMismatch("matrix 'entries' must be a list of rows")
    x = Matrix([[scalar_from_str(e) for e in row] for row in entries])
    if "n" in data:
        declared = data["n"]
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise SizeMismatch(f"declared size {declared!r} is not an integer")
        if declared != x.n:
            raise SizeMismatch(f"declared size {declared} != actual size {x.n}")
    return x


def matrix_from_json_text(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad matrix JSON: {exc}") from exc
    return matrix_from_json(data)
