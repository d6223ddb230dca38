"""Permutations of 1..n with reduced-word machinery.

One-line notation throughout: Permutation((4, 3, 1, 2)) maps 1 to 4.
Composition is function composition, (w1 * w2)(i) = w1(w2(i)); right
multiplication by the simple transposition s_i swaps positions i, i+1
of the one-line word.
"""

from __future__ import annotations

from .errors import IndexOutOfRange, ValidationError
from .linalg import Matrix


def check_size(n):
    """Refuse all but an int n >= 1, before any cache sees the value."""
    if type(n) is not int or n < 1:
        raise ValidationError(f"size must be an int >= 1, got {n!r}")


class Permutation:
    __slots__ = ("oneline",)

    def __init__(self, oneline):
        oneline = tuple(oneline)
        for a in oneline:
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValidationError(
                    f"permutation entry {a!r} is not an integer")
        if sorted(oneline) != list(range(1, len(oneline) + 1)):
            raise ValidationError(f"{oneline} is not a permutation of 1..{len(oneline)}")
        self.oneline = oneline

    @classmethod
    def identity(cls, n):
        check_size(n)
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, n, i):
        """The simple transposition s_i in S_n."""
        if type(i) is not int or not 1 <= i <= n - 1:
            raise IndexOutOfRange(
                f"simple reflection index {i!r} outside [1, {n - 1}]")
        line = list(range(1, n + 1))
        line[i - 1], line[i] = line[i], line[i - 1]
        return cls(line)

    @classmethod
    def longest_element(cls, n):
        check_size(n)
        return cls(range(n, 0, -1))

    @classmethod
    def from_word(cls, n, word):
        """Product s_{i1} ... s_{im} of simple transpositions."""
        line = list(range(1, n + 1))
        for i in word:
            if type(i) is not int or not 1 <= i <= n - 1:
                raise IndexOutOfRange(f"letter {i!r} outside [1, {n - 1}]")
            line[i - 1], line[i] = line[i], line[i - 1]
        return cls(line)

    @classmethod
    def from_string(cls, text):
        """Parse "4312" (single digits) or "10,3,1,2,...,4" forms."""
        oneline = None
        # ASCII only: int() and strip() take any Unicode digit and space;
        # and no underscore, as int() reads the digit group "1_0" as 10
        if text.isascii() and "_" not in text:
            text = text.strip()
            try:
                oneline = [int(p) for p in (text.split(",") if "," in text else text)]
            except ValueError:
                pass
        if not oneline:
            raise ValidationError(f"bad permutation literal {text!r}")
        return cls(oneline)

    @property
    def n(self):
        return len(self.oneline)

    def __call__(self, i):
        """The image of i; i < 1 would wrap, indexing rejects i > n, and
        the type test rejects bools, floats and anything else."""
        try:
            if type(i) is int and i > 0:
                return self.oneline[i - 1]
        except IndexError:
            pass
        raise IndexOutOfRange(f"argument {i!r} outside [1, {self.n}]")

    def apply(self, indices):
        """Image of a set of indices, as a sorted tuple."""
        return tuple(sorted(map(self, indices)))

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValidationError("cannot compose permutations of different sizes")
        return Permutation(self.oneline[b - 1] for b in other.oneline)

    def inverse(self):
        inv = [0] * self.n
        for i, a in enumerate(self.oneline, start=1):
            inv[a - 1] = i
        return Permutation(inv)

    def length(self):
        """Number of inversions."""
        line = self.oneline
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n)
                   if line[i] > line[j])

    def lex_min_reduced_word(self):
        """The lexicographically smallest reduced word, as a tuple.

        Its first letter is the smallest i for which value i+1 stands
        before value i; swapping those two values (s_i on the left)
        leaves a permutation one shorter, whose smallest word follows.
        The swap can create a new such i only at i-1, so the scan
        resumes there.
        """
        where = [0] * (self.n + 1)
        for p, a in enumerate(self.oneline):
            where[a] = p
        word = []
        i = 1
        while i < self.n:
            if where[i + 1] < where[i]:
                where[i], where[i + 1] = where[i + 1], where[i]
                word.append(i)
                i = max(i - 1, 1)
            else:
                i += 1
        return tuple(word)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.oneline == other.oneline

    def __hash__(self):
        return hash(self.oneline)

    def __repr__(self):
        return f"Permutation({self.oneline})"

    def __str__(self):
        if self.n <= 9:
            return "".join(str(a) for a in self.oneline)
        return ",".join(str(a) for a in self.oneline)


def is_reduced(word, w):
    """Does the word multiply out to w with no cancellation?"""
    word = tuple(word)
    return Permutation.from_word(w.n, word) == w and len(word) == w.length()


def signed_columns(w):
    """(i, s) per column j of the signed representative of w: its one
    nonzero entry s sits in row i = w(j+1) - 1 (both 0-based), and s = -1
    when an odd number of nonzero entries lie below and left of it."""
    line = w.oneline
    return [(a - 1, -1 if sum(b > a for b in line[:j]) % 2 else 1)
            for j, a in enumerate(line)]


def signed_representative(w):
    """Signed permutation matrix representing w in the general linear
    group: the entry s at (i, j) for the (i, s) of column j above."""
    rows = [[0] * w.n for _ in range(w.n)]
    for j, (i, s) in enumerate(signed_columns(w)):
        rows[i][j] = s
    return Matrix(rows)

