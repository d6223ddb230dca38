"""The twist map between double cells.

For x in the double cell of (u, v) the twisted matrix is

    x' = d0 [x^T ubar]_+ ubar^T (x^T)^{-1} vibar [vibar^T x^T]_- d0^{-1}

where ubar and vibar are the signed representatives of u and v^{-1},
d0 alternates +1, -1 on the diagonal, and [z]_- , [z]_+ are the unit
lower and unit upper factors of the Gaussian decomposition of z.  The
twist lands in the double cell of (u^{-1}, v^{-1}) and is inverted by
the twist for that cell; it preserves total nonnegativity.

ubar, vibar and d0 act as row or column permutations with signs, in
O(n^2); only the product of the three middle factors is dense.
"""

from __future__ import annotations

from .bruhat import double_cell_of
from .errors import DecompositionFailure, NotInG0, SizeMismatch, WrongCell
from .linalg import Matrix, inverse, ldu_decompose
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
    ubar = signed_columns(u)
    vibar = signed_columns(v.inverse())
    xt = x.transpose()
    try:
        # column j of z ubar is s z[:, i]; row j of ubar^T z is s z[i, :]
        _, _, left = ldu_decompose(
            Matrix([[row[i] * s for i, s in ubar] for row in xt.rows]))
        right, _, _ = ldu_decompose(
            Matrix([[s * a for a in xt.rows[i]] for i, s in vibar]))
    except NotInG0 as exc:
        raise DecompositionFailure(f"no Gaussian decomposition: {exc}") from exc
    inv = inverse(xt).rows
    middle = Matrix([[s * t * inv[i][k] for k, t in vibar] for i, s in ubar])
    # d0 z d0, with d0 its own inverse, signs entry (i, j) by (-1)^(i+j)
    return Matrix([[-a if (i + j) % 2 else a for j, a in enumerate(row)]
                   for i, row in enumerate((left * middle * right).rows)])
