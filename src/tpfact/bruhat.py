"""Bruhat cell membership and classification.

An invertible x lies in the cell of w for the upper Bruhat
decomposition iff the minors with rows w([1,i]) and columns [1,i] are
all nonzero while the minors with rows w([1,i-1] u {j}) and columns
[1,i] vanish whenever i < j and w(i) < w(j).  Transposition swaps the
upper and lower decompositions and inverts the cell representative,
which is how the second coordinate of a double cell is read off.

Classification tries candidate permutations until one fits, and each
try checks invertibility; `det` caches the determinant on the matrix,
so that check costs one elimination per classified matrix.
"""

from __future__ import annotations

from .errors import Singular
from .linalg import det, leading_principal_minors, minor
from .permutations import Permutation, all_permutations


def in_bruhat_cell(x, w):
    """Is x in the upper Bruhat cell of w?"""
    if det(x) == 0:
        raise Singular("Bruhat decomposition needs an invertible matrix")
    n = x.n
    cols = []
    for i in range(1, n):
        cols.append(tuple(range(1, i + 1)))
        rows = tuple(sorted(w(a) for a in range(1, i + 1)))
        if minor(x, rows, cols[-1]) == 0:
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
    """The unique w with x in its upper Bruhat cell, by exhaustive search."""
    for w in all_permutations(x.n):
        if in_bruhat_cell(x, w):
            return w
    raise Singular("no Bruhat cell matched; matrix must be invertible")


def double_cell_of(x):
    """The double cell (u, v) containing x."""
    u = bruhat_cell_of(x)
    v = bruhat_cell_of(x.transpose()).inverse()
    return (u, v)


def in_G0(x):
    """Is x Gaussian decomposable (all leading principal minors nonzero)?"""
    return all(m != 0 for m in leading_principal_minors(x))
