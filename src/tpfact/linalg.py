"""Exact dense linear algebra over the rationals.

Matrices are square, immutable, and hold Fraction entries, so every
computation here is exact and equality means equality.  All indices on
the public surface are 1-based; row/column subsets are strictly
increasing tuples of 1-based indices, checked in one pass per set.

`minor` is the one minor kernel, and each order costs what it needs:
order 0 is 1, order 1 reads the entry, order 2 is one integer
cross-multiplication, and orders from 3 on run the one Gaussian
elimination, `_eliminate`, which the G0 rule shares.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, prod

from .errors import IndexOutOfRange, SizeMismatch, ValidationError


# The longest integer an input literal may spell out: Python's default
# int-from-str limit, as decimal-to-int conversion takes quadratic time.
MAX_LITERAL_DIGITS = 4300


def _check_digits(text, what):
    if len(text) > MAX_LITERAL_DIGITS and any(
            sum(map(str.isdigit, part)) > MAX_LITERAL_DIGITS for part in text.split("/")):
        raise ValidationError(f"{what} {text[:20]!r}... has more than "
                              f"{MAX_LITERAL_DIGITS} digits")


def scalar_from_str(text):
    """Parse "p" or "p/q" into a Fraction."""
    if not isinstance(text, str):
        raise ValidationError(f"rational literal {text!r} is not a string")
    if not text.isascii():
        # Fraction takes any Unicode decimal digit
        raise ValidationError(f"rational literal {text!r} is not ASCII")
    if "_" in text:
        # Fraction reads the digit group "1_0" as 10
        raise ValidationError(f"rational literal {text!r} has an underscore")
    if "e" in text.lower():
        # Fraction would accept it and build 10**exponent, however large
        raise ValidationError(f"rational literal {text!r} has an exponent")
    _check_digits(text, "rational literal")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {text!r}") from exc
    return value


def _int_to_str(value):
    try:
        return str(value)
    except ValueError:
        # past Python's int-to-str digit limit, kept as it bounds parsing:
        # Decimal converts exactly without it
        from decimal import Decimal
        return str(Decimal(value))


def scalar_to_str(value):
    """Canonical string form: reduced, positive denominator, "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return _int_to_str(value.numerator)
    return f"{_int_to_str(value.numerator)}/{_int_to_str(value.denominator)}"


def check_index_pair(row_set, col_set, n):
    """Validate the row and column sets of a minor: strictly increasing
    tuples of 1-based indices in [1, n], of the same size.

    Each set is read in one pass.  The rows are checked before the
    columns, and in a set the first index outside [1, n] is reported
    before any fault of order; the sizes are compared last.
    """
    pair = tuple(row_set), tuple(col_set)
    for indices in pair:
        last = 0
        for a in indices:
            if type(a) is not int or not last < a <= n:
                _raise_index_fault(indices, n)
            last = a
    rows, cols = pair
    if len(rows) != len(cols):
        raise SizeMismatch(f"row set size {len(rows)} != column set size {len(cols)}")
    return pair


def _raise_index_fault(indices, n):
    """Raise IndexOutOfRange for a set that check_index_pair rejected."""
    for a in indices:
        if type(a) is not int or not 1 <= a <= n:
            raise IndexOutOfRange(f"index {a!r} outside [1, {n}]")
    raise IndexOutOfRange(f"index set {indices} is not strictly increasing")


def exact_scalar(value, what):
    """value as a Fraction if it is an int (not a bool) or a Fraction;
    anything else, floats and strings included, raises ValidationError
    naming `what`."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(
        f"{what} {value!r} is a {type(value).__name__}, not an int or a Fraction")


class Matrix:
    """Immutable square matrix of Fractions, built from ints and Fractions.

    `_det` holds the determinant once `det` has computed it; it takes no
    part in equality, hashing or repr.
    """

    __slots__ = ("n", "rows", "_det")

    def __init__(self, rows):
        rows = tuple(tuple(
            e if type(e) is Fraction else Fraction(e) if type(e) is int
            else exact_scalar(e, f"entry ({i}, {j})")
            for j, e in enumerate(row, start=1))
            for i, row in enumerate(rows, start=1))
        n = len(rows)
        if n == 0:
            raise SizeMismatch("matrix must have size at least 1")
        if any(len(row) != n for row in rows):
            raise SizeMismatch("matrix must be square")
        self.n = n
        self.rows = rows
        self._det = None

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        """1-based entry access."""
        if not all(type(a) is int and 1 <= a <= self.n for a in (i, j)):
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


def _eliminate(m, k):
    """In-place Gaussian elimination on the first k columns of the rows m.
    The pivot is the first nonzero entry at or below the diagonal, each
    multiplier is stored in the entry it clears, and the row operations
    also act on any later columns.  Returns the first column without a
    pivot (k if none) and the columns whose pivot needed a row swap."""
    swaps = []
    for c in range(k):
        if not m[c][c]:
            r = next((r for r in range(c + 1, len(m)) if m[r][c]), None)
            if r is None:
                return c, swaps
            m[c], m[r] = m[r], m[c]
            swaps.append(c)
        top = m[c]
        for row in m[c + 1:]:
            if row[c]:
                f = row[c] = row[c] / top[c]
                row[c + 1:] = [a - f * b for a, b in zip(row[c + 1:], top[c + 1:])]
    return k, swaps


def _first_zero_leading_minor(m, k):
    """The G0 rule: eliminate the first k columns of the rows m in place
    (`_eliminate`) and return the order of the first vanishing leading
    principal minor, or 0 when every pivot is found on the diagonal.  In
    that case m = [m]_- [m]_0 [m]_+, and the rows hold [m]_-'s multipliers
    below the diagonal and [m]_0's pivots on it."""
    stop, swaps = _eliminate(m, k)
    if swaps:
        return swaps[0] + 1
    return stop + 1 if stop < k else 0


def minor(x, row_set, col_set):
    """Minor with the given 1-based row and column subsets.

    Each order costs what it needs.  Empty subsets give the empty minor,
    which is 1; order 1 is the entry; order 2 is ad - bc, cross-multiplied
    in integers over the least common multiple of the denominators of ad
    and bc, and normalised once into a Fraction.  From order 3 on it is
    the signed product of the pivots of Gaussian elimination on the
    submatrix, or 0 when a column has no pivot.
    """
    rows, cols = check_index_pair(row_set, col_set, x.n)
    k = len(rows)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return x.rows[rows[0] - 1][cols[0] - 1]
    if k == 2:
        top, bottom = x.rows[rows[0] - 1], x.rows[rows[1] - 1]
        i, j = cols[0] - 1, cols[1] - 1
        a, b, c, d = top[i], top[j], bottom[i], bottom[j]
        # entries of one matrix often share denominators, and the least
        # common multiple of those of ad and bc keeps the ints short
        p, q = a.denominator * d.denominator, b.denominator * c.denominator
        g = gcd(p, q)
        return Fraction(a.numerator * d.numerator * (q // g)
                        - b.numerator * c.numerator * (p // g), p // g * q)
    m = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    stop, swaps = _eliminate(m, k)
    if stop < k:
        return Fraction(0)
    value = prod((m[c][c] for c in range(1, k)), start=m[0][0])
    return -value if len(swaps) % 2 else value


def det(x):
    """Determinant, computed on first use and kept on the matrix."""
    if x._det is None:
        full = tuple(range(1, x.n + 1))
        x._det = minor(x, full, full)
    return x._det


def matrix_to_json(x):
    return {"n": x.n,
            "entries": [[scalar_to_str(e) for e in row] for row in x.rows]}


def matrix_from_json(data):
    if not isinstance(data, dict) or "entries" not in data:
        raise ValidationError("matrix JSON must be an object with an 'entries' field")
    entries = data["entries"]
    if not isinstance(entries, list) or not all(
            isinstance(row, list) for row in entries):
        raise ValidationError("matrix 'entries' must be a list of rows")
    x = Matrix([[scalar_from_str(e) for e in row] for row in entries])
    if "n" in data:
        declared = data["n"]
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise ValidationError(f"declared size {declared!r} is not an integer")
        if declared != x.n:
            raise SizeMismatch(f"declared size {declared} != actual size {x.n}")
    return x


def parse_json(text, what):
    """json.loads, except that malformed text, an integer literal over
    MAX_LITERAL_DIGITS digits, or nesting deeper than the parser's
    recursion limit raises ValidationError; `what` names the text in
    the first message, as in "bad matrix JSON: ..."."""
    def parse_int(literal):
        _check_digits(literal, "JSON integer")
        return int(literal)
    try:
        return json.loads(text, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc
    except RecursionError:
        raise ValidationError("JSON text nests too deeply") from None


def matrix_from_json_text(text):
    return matrix_from_json(parse_json(text, "matrix JSON"))
