"""The twist map between double cells.

For x in the double cell of (u, v) the twisted matrix is

    x' = d0 [x^T ubar]_+ ubar^T (x^T)^{-1} vibar [vibar^T x^T]_- d0^{-1}

where ubar and vibar are the signed representatives of u and v^{-1},
d0 alternates +1, -1 on the diagonal, and [z]_- , [z]_+ are the unit
lower and unit upper factors of the Gaussian decomposition of z.  The
twist lands in the double cell of (u^{-1}, v^{-1}) and is inverted by
the twist for that cell; it preserves total nonnegativity.

No inverse is formed.  From x^T ubar = L1 D1 U1 it follows that
U1 ubar^T (x^T)^{-1} = (L1 D1)^{-1}, so with L2 = [vibar^T x^T]_-

    x' = d0 (L1 D1)^{-1} vibar L2 d0.

The column signs S of ubar = P S and S' of vibar = P' S' only rescale
factors (L1 and D1 S are those of x^T P, S' L2 S' is that of P'^T x^T),
so x' = d0 S D1^{-1} L1^{-1} P' L2 S' d0 with L1, D1 and L2 read off one
elimination each of the permuted copies x^T P and P'^T x^T of x, and no
U factor divided out.  The rows of P' L2, appended to those of x^T P,
come out of its elimination as L1^{-1} P' L2; D1, S, S' and d0 then
scale rows and columns.
"""

from __future__ import annotations

from fractions import Fraction

from .bruhat import double_cell_of
from .errors import DecompositionFailure, SizeMismatch, WrongCell
from .linalg import Matrix, _first_zero_leading_minor
from .permutations import signed_columns


def twist(x, u, v):
    """Twist x, which must lie in the double cell of (u, v)."""
    if x.n != u.n or u.n != v.n:
        raise SizeMismatch("matrix and permutations must share one size")
    cell = double_cell_of(x)
    if cell != (u, v):
        raise WrongCell(
            f"matrix lies in the double cell of ({cell[0]}, {cell[1]}), "
            f"not ({u}, {v})")
    return _twist_in_cell(x, u, v)


def _twist_in_cell(x, u, v):
    """The twist formula, for x already known to lie in the cell (u, v)."""
    n = x.n
    ubar = signed_columns(u)
    vibar = signed_columns(v.inverse())
    cols = tuple(zip(*x.rows))
    # column j of x^T P is column i of x^T, row j of P'^T x^T is its row i
    left = [[col[i] for i, _ in ubar] for col in cols]
    right = [list(cols[i]) for i, _ in vibar]
    right_order = _first_zero_leading_minor(right, n)
    # row i of P' L2 is row j of L2 for the (i, s) of column j of vibar;
    # appended to row i of x^T P, it comes out of the elimination that
    # finds L1 and D1 as row i of L1^{-1} P' L2
    one, zero = Fraction(1), Fraction(0)
    for j, (i, _) in enumerate(vibar):
        left[i] += right[j][:j] + [one] + [zero] * (n - 1 - j)
    order = _first_zero_leading_minor(left, n) or right_order
    if order:
        raise DecompositionFailure("no Gaussian decomposition: leading "
                                   f"principal minor of order {order} vanishes")
    # d0 S scales row i by (-1)^i S_i, folded into its pivot; S' d0
    # scales column j by (-1)^j S'_j
    col_sign = [(-1) ** j * s for j, (_, s) in enumerate(vibar)]
    out = []
    for i, (row, (_, s)) in enumerate(zip(left, ubar)):
        d = (-1) ** i * s * row[i]
        out.append([a / d if t > 0 else -a / d for a, t in zip(row[n:], col_sign)])
    return Matrix(out)
