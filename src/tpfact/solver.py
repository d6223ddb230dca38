"""Recovering factorization parameters from chamber minors.

All formulas here evaluate minors of the twisted matrix x' at the
unmodified chamber sets (I(C), J(C)) of the scheme's arrangement, each
once.  Per level, with chambers c_0..c_m left to right and minors
D_0..D_m, keep the prefix products P_0 = 1 and P_{j+1} = P_j * D_j,
P_j / D_j or P_j for an FE-, EF- or other chamber c_j; Pi_level is
P_{m+1}.

For a parameter sitting on the bullet of line i the answer is the
ratio Pi_i / Pi_{i-1}.

For a parameter at an E- or F-crossing of level i, look at the four
big chambers (maximal intervals free of crossings of the crossing's
own kind) around it: above (level i+1), below (level i-1), left and
right (level i).  Each contributes a Laurent monomial read off one of
its two ends; the bullet of line i+1 picks the end for the upper pair
(above/left) and the bullet of line i for the lower pair
(below/right): the end facing away from the bullet.  With s = +1 for
E and -1 for F, the right end anchored at c_j is D_j (Pi / P_{j+1})^s,
the left end D_j P_j^-s; the anchor's own minor drops out when the
anchor ends at the right border (E) or starts at the left border (F).
The parameter is then (above * below) / (left * right).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SizeMismatch, ZeroMinor
from .linalg import minor
from .schemes import E, H, build_arrangement
from .twist import twist

_SIGMA = {"FE": 1, "EF": -1}


def chamber_minor(xprime, chamber):
    """Evaluate Delta_{I(C), J(C)} at x', insisting it is nonzero."""
    value = minor(xprime, chamber.row_set, chamber.col_set)
    if value == 0:
        raise ZeroMinor(
            f"chamber minor at level {chamber.level}, span "
            f"({chamber.start}, {chamber.end}) vanishes")
    return value


def solve(scheme, x):
    """Invert the product map: parameters of x along the scheme.

    x must lie in the double cell of the scheme's type and be generic
    enough that every chamber minor of its twist is nonzero, which
    holds on the whole image of the product map over nonzero
    parameters.  Every parameter is a ratio of products of those
    minors, so none comes out zero.  Reading the scheme's type checks the
    scheme, before the matrix size.
    """
    u, v = scheme.cell_type
    if x.n != scheme.n:
        raise SizeMismatch(f"matrix size {x.n} != scheme size {scheme.n}")
    xprime = twist(x, u, v)
    # per level: chambers, their minors and the prefix products
    table = []
    for level, chambers in enumerate(build_arrangement(scheme)):
        deltas = [chamber_minor(xprime, c) if level else Fraction(1)
                  for c in chambers]
        prefix = [Fraction(1)]
        for c, d in zip(chambers, deltas):
            prefix.append(prefix[-1] * d ** _SIGMA.get(c.type, 0))
        table.append((chambers, deltas, prefix))

    def end(kind, level, point, bullet):
        """End monomial of the big chamber around a point, away from a bullet.

        point and bullet are doubled word positions, so a point
        just left or right of the crossing at p is 2p - 1 or 2p + 1.
        """
        chambers, deltas, prefix = table[level]
        s = 1 if kind == E else -1
        if bullet > point:
            j = max(k for k, c in enumerate(chambers) if 2 * c.start < point
                    and (c.left_kind == kind or c.start == 0))
            value, anchored = prefix[j] ** -s, chambers[j].left_kind == kind
        else:
            j = next(k for k, c in enumerate(chambers) if 2 * c.end > point
                     and (c.right_kind == kind or c.end == scheme.length + 1))
            value = (prefix[-1] / prefix[j + 1]) ** s
            anchored = chambers[j].right_kind == kind
        return value * deltas[j] if anchored else value

    values = []
    for position, (kind, i) in enumerate(scheme.word, start=1):
        if kind == H:
            t = table[i][2][-1] / table[i - 1][2][-1]
        else:
            p, upper, lower = (2 * position, 2 * scheme.h_position(i + 1),
                               2 * scheme.h_position(i))
            t = (end(kind, i + 1, p, upper) * end(kind, i - 1, p, lower)
                 / (end(kind, i, p - 1, upper) * end(kind, i, p + 1, lower)))
        values.append(t)
    return values
