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

    position is 1-based and names the left member of the pair.  The
    parameter updates follow the commutation rules: pushing h<j> left
    through e<i> divides the e-parameter by the h-parameter when j = i
    and multiplies it when j = i+1, and the other way around for f<i>;
    the symmetric rules apply when pushing h<j> right.  Pairs whose
    indices do not interact commute with no parameter change.
    """
    values = [Fraction(v) for v in values]
    if len(values) != scheme.length:
        raise ArityMismatch(
            f"{len(values)} parameters for a length-{scheme.length} scheme")
    if not 1 <= position <= scheme.length - 1:
        raise BadToken(f"position {position} has no right neighbor")
    a_sym = scheme.word[position - 1]
    b_sym = scheme.word[position]
    a, b = values[position - 1], values[position]
    if (a_sym.kind == H and a == 0) or (b_sym.kind == H and b == 0):
        raise ZeroDiagonal("circled symbols require nonzero parameters")

    if a_sym.kind == H and b_sym.kind == H:
        new_a, new_b = b, a
    elif a_sym.kind in (E, F) and b_sym.kind == H:
        i, j = a_sym.index, b_sym.index
        if j == i:
            moved = a / b if a_sym.kind == E else a * b
        elif j == i + 1:
            moved = a * b if a_sym.kind == E else a / b
        else:
            moved = a
        new_a, new_b = b, moved
    elif a_sym.kind == H and b_sym.kind in (E, F):
        j, i = a_sym.index, b_sym.index
        if j == i:
            moved = b * a if b_sym.kind == E else b / a
        elif j == i + 1:
            moved = b / a if b_sym.kind == E else b * a
        else:
            moved = b
        new_a, new_b = moved, a
    else:
        raise BadToken(
            f"pair ({a_sym.token}, {b_sym.token}) has no circled symbol")

    word = list(scheme.word)
    word[position - 1], word[position] = b_sym, a_sym
    values[position - 1], values[position] = new_a, new_b
    return FactorizationScheme(scheme.n, tuple(word)), values
