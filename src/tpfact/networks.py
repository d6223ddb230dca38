"""Planar networks attached to schemes, and the numeric product over them.

The network of a scheme is a left-to-right concatenation of fragments,
one per symbol: an e<i> fragment carries an up diagonal from wire i to
wire i+1 weighted by its parameter, an f<i> fragment a down diagonal
from wire i+1 to wire i, and an h<j> fragment puts the weight on the
horizontal edge of wire j.  A scheme is its own network: build_network
returns it.

Each fragment's path matrix is its symbol's elementary factor, so
sweep_matrix, behind product and evaluate_network, multiplies those out
in place.  Path sums and Lindstrom's lemma (minors as sums over
vertex-disjoint path families) are read in tests/reference.py.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch
from .linalg import Matrix, exact_scalar
from .schemes import E, H


def build_network(scheme):
    """The network of a scheme, which is the scheme itself: its n, word
    and length are all that evaluate_network reads."""
    return scheme


def parameters(values, length):
    """The parameter vector as Fractions, one per symbol of a
    length-`length` scheme; each value must be an int or a Fraction."""
    values = [exact_scalar(v, f"parameter {k}")
              for k, v in enumerate(values, start=1)]
    if len(values) != length:
        raise ArityMismatch(
            f"{len(values)} parameters for a length-{length} scheme")
    return values


def evaluate_network(network, values):
    """Numeric product matrix of the validated network at the values."""
    values = parameters(values, network.length)
    network.validate()
    return sweep_matrix(network.n, network.word, values)


def sweep_matrix(n, word, values):
    """The product matrix of word at checked parameters.

    Starts from the identity rows and right-multiplies each factor in
    place: e<i> adds t times column i to column i+1, f<i> adds t times
    column i+1 to column i, and h<j> scales column j by t.  A row whose
    source entry is 0 is left as it is.
    """
    zero, one = Fraction(0), Fraction(1)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for sym, t in zip(word, values):
        if sym.kind == H:
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
