"""Products of elementary Jacobi matrices along a scheme.

An e<i> symbol with parameter t contributes I + t E_{i,i+1}, an f<i>
symbol I + t E_{i+1,i}, and an h<j> symbol the diagonal matrix that
multiplies the jth coordinate by t (so its parameter must be nonzero).
The product map sends a parameter vector to the product of these
factors in word order.  It is computed as path sums in the scheme's
planar network, which equal the entries of that product; elementary()
builds the factors themselves.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch, BadToken, ZeroDiagonal
from .linalg import Matrix
from .networks import build_network, evaluate_network
from .schemes import E, F, H, FactorizationScheme


def _check_symbol(n, symbol, t):
    """Reject a symbol that names no elementary matrix of GL_n at t."""
    if symbol.kind not in (E, F, H):
        raise BadToken(f"unknown symbol kind {symbol.kind!r}")
    top = n if symbol.kind == H else n - 1
    if not 1 <= symbol.index <= top:
        raise BadToken(f"{symbol.token} invalid for n={n}")
    if symbol.kind == H and t == 0:
        raise ZeroDiagonal(f"{symbol.token} requires a nonzero parameter")


def elementary(n, symbol, t):
    """The elementary Jacobi matrix of one scheme symbol."""
    t = Fraction(t)
    _check_symbol(n, symbol, t)
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    i = symbol.index
    if symbol.kind == E:
        rows[i - 1][i] = t
    elif symbol.kind == F:
        rows[i][i - 1] = t
    else:
        rows[i - 1][i - 1] = t
    return Matrix(rows)


def product(scheme, values):
    """Multiply out the scheme at the given parameter vector.

    Checks each symbol as elementary() does, then reads the product off
    the scheme's planar network (evaluate_network).
    """
    values = [Fraction(v) for v in values]
    if len(values) != scheme.length:
        raise ArityMismatch(
            f"{len(values)} parameters for a length-{scheme.length} scheme")
    for sym, t in zip(scheme.word, values):
        _check_symbol(scheme.n, sym, t)
    return evaluate_network(build_network(scheme), values)


def commute_h(scheme, values, position):
    """Swap an adjacent pair involving a circled symbol, fixing the product.

    position is 1-based and names the left member of the pair.  The two
    parameters swap places, and a crossing x_i passed by h<j> = h(s)
    follows h x_i(t) = x_i(t s^p) h, p = <alpha_i, e_j> = [j = i] -
    [j = i+1], with p negated for an f-crossing and negated again when
    h<j> moves left.  Two bullets just swap.
    """
    values = [Fraction(v) for v in values]
    if len(values) != scheme.length:
        raise ArityMismatch(
            f"{len(values)} parameters for a length-{scheme.length} scheme")
    if not 1 <= position <= scheme.length - 1:
        raise BadToken(f"position {position} has no right neighbor")
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
