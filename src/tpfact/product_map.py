"""Products of elementary Jacobi matrices along a scheme.

An e<i> symbol with parameter t contributes I + t E_{i,i+1}, an f<i>
symbol I + t E_{i+1,i}, and an h<j> symbol the diagonal matrix that
multiplies the jth coordinate by t (so its parameter must be nonzero).
The product map sends a parameter vector to the product of these
factors in word order, multiplied out in place from the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch, BadToken, ZeroDiagonal
from .linalg import Matrix, exact_scalar
from .schemes import E, F, H, FactorizationScheme


def parameters(values, length):
    """The parameter vector as Fractions, one per symbol of a
    length-`length` scheme; each value must be an int or a Fraction."""
    values = [exact_scalar(v, f"parameter {k}")
              for k, v in enumerate(values, start=1)]
    if len(values) != length:
        raise ArityMismatch(
            f"{len(values)} parameters for a length-{length} scheme")
    return values


def product(scheme, values):
    """Multiply out the scheme at the given parameter vector.

    Checks the parameter count and validates the scheme.  Then
    right-multiplies the identity rows by each factor in place: e<i> adds
    t times column i to column i+1, f<i> adds t times column i+1 to
    column i, h<j> scales column j by t (a zero t is rejected there), and
    a row whose source entry is 0 is left as it is.
    """
    values = parameters(values, scheme.length)
    scheme.validate()
    n = scheme.n
    zero, one = Fraction(0), Fraction(1)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for sym, t in zip(scheme.word, values):
        if sym.kind == H:
            if t == 0:
                raise ZeroDiagonal(f"{sym.token} requires a nonzero parameter")
            j = sym.index - 1
            for row in rows:
                if row[j]:
                    row[j] *= t
            continue
        if sym.kind == E:
            src, dst = sym.index - 1, sym.index
        else:
            src, dst = sym.index, sym.index - 1
        for row in rows:
            if row[src]:
                row[dst] += t * row[src]
    return Matrix(rows)


def commute_h(scheme, values, position):
    """Swap an adjacent pair involving a circled symbol, fixing the product.

    position is a 1-based int (not a bool) and names the left member of
    the pair.  The two parameters swap places, and a crossing x_i passed
    by h<j> = h(s) follows h x_i(t) = x_i(t s^p) h, p = <alpha_i, e_j> =
    [j = i] - [j = i+1], with p negated for an f-crossing and negated
    again when h<j> moves left.  Two bullets just swap.
    """
    values = parameters(values, scheme.length)
    if type(position) is not int or not 1 <= position <= scheme.length - 1:
        raise BadToken(f"position {position!r} has no right neighbor")
    k = position - 1
    pair = scheme.word[k:k + 2]
    if any(sym.kind == H and t == 0 for sym, t in zip(pair, values[k:])):
        raise ZeroDiagonal("circled symbols require nonzero parameters")
    left, right = pair
    kinds = {left.kind, right.kind}
    if H not in kinds or not kinds <= {E, F, H}:
        raise BadToken(
            f"pair ({left.token}, {right.token}) has no circled symbol")

    word = list(scheme.word)
    word[k], word[k + 1] = right, left
    values[k], values[k + 1] = values[k + 1], values[k]
    if kinds != {H}:
        # the slots of the crossing and of h<j> after the swap
        c, h = (k, k + 1) if left.kind == H else (k + 1, k)
        i, j = word[c].index, word[h].index
        power = (j == i) - (j == i + 1)
        if (word[c].kind == E) != (h > c):
            power = -power
        values[c] *= values[h] ** power
    return FactorizationScheme(scheme.n, tuple(word)), values
