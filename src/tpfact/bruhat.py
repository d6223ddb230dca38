"""Bruhat cell membership and classification.

An invertible x lies in the cell of w for the upper Bruhat
decomposition iff the minors with rows w([1,i]) and columns [1,i] are
all nonzero while the minors with rows w([1,i-1] u {j}) and columns
[1,i] vanish whenever i < j and w(i) < w(j).  Transposition swaps the
upper and lower decompositions and inverts the cell representative,
which is how the second coordinate of a double cell is read off.

Classification generates S_n in lexicographic order until a candidate
fits, so its cost follows the answer's rank and S_n is never listed.
Each try checks invertibility, reads the nonzero family off one
elimination (its minors are, up to sign, the leading principal minors
of rows w(1), ..., w(n-1) in that order) and takes one `minor` per
vanishing condition; `det` caches the determinant on the matrix, so the
invertibility check costs one elimination per classified matrix.
"""

from __future__ import annotations

import itertools

from .errors import Singular, SizeMismatch
from .linalg import _first_zero_leading_minor, det, minor
from .permutations import Permutation


def in_bruhat_cell(x, w):
    """Is x in the upper Bruhat cell of w?  Both must share one size."""
    if w.n != x.n:
        raise SizeMismatch(f"matrix size {x.n} != permutation size {w.n}")
    if det(x) == 0:
        raise Singular("Bruhat decomposition needs an invertible matrix")
    n = x.n
    block = [list(x.rows[w(a) - 1][:n - 1]) for a in range(1, n)]
    if _first_zero_leading_minor(block, n - 1):
        return False
    for i in range(1, n):
        prefix = [w(a) for a in range(1, i)]
        for j in range(i + 1, n + 1):
            if w(i) < w(j):
                rows = tuple(sorted(prefix + [w(j)]))
                if minor(x, rows, tuple(range(1, i + 1))) != 0:
                    return False
    return True


def bruhat_cell_of(x):
    """The unique w with x in its upper Bruhat cell, tried in lex order."""
    for w in map(Permutation, itertools.permutations(range(1, x.n + 1))):
        if in_bruhat_cell(x, w):
            return w
    raise Singular("no Bruhat cell matched; matrix must be invertible")


def double_cell_of(x):
    """The double cell (u, v) containing x."""
    u = bruhat_cell_of(x)
    v = bruhat_cell_of(x.transpose()).inverse()
    return (u, v)
