"""The twist map between double cells.

For x in the double cell of (u, v) the twisted matrix is

    x' = d0 [x^T ubar]_+ ubar^T (x^T)^{-1} vibar [vibar^T x^T]_- d0^{-1}

where ubar and vibar are the signed representatives of u and v^{-1},
d0 alternates +1, -1 on the diagonal, and [z]_- , [z]_+ are the unit
lower and unit upper factors of the Gaussian decomposition of z.  The
twist lands in the double cell of (u^{-1}, v^{-1}) and is inverted by
the twist for that cell; it preserves total nonnegativity.
"""

from __future__ import annotations

from .bruhat import double_cell_of
from .errors import DecompositionFailure, NotInG0, SizeMismatch, WrongCell
from .linalg import Matrix, inverse, ldu_decompose
from .permutations import signed_representative


def alternating_diagonal(n):
    return Matrix.diagonal([(-1) ** i for i in range(n)])


def twist(x, u, v):
    """Twist x, which must lie in the double cell of (u, v)."""
    if x.n != u.n or u.n != v.n:
        raise SizeMismatch("matrix and permutations must share one size")
    cell = double_cell_of(x)
    if cell != (u, v):
        raise WrongCell(
            f"matrix lies in the double cell of ({cell[0]}, {cell[1]}), "
            f"not ({u}, {v})")
    ubar = signed_representative(u)
    vibar = signed_representative(v.inverse())
    xt = x.transpose()
    try:
        _, _, left = ldu_decompose(xt * ubar)
        right, _, _ = ldu_decompose(vibar.transpose() * xt)
    except NotInG0 as exc:
        raise DecompositionFailure(f"no Gaussian decomposition: {exc}") from exc
    middle = ubar.transpose() * inverse(xt) * vibar
    d0 = alternating_diagonal(x.n)  # +-1 on the diagonal: its own inverse
    return d0 * left * middle * right * d0
