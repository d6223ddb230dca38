"""Planar networks attached to schemes, and the one sweep over them.

The network of a scheme is a left-to-right concatenation of fragments,
one per symbol: an e<i> fragment carries an up diagonal from wire i to
wire i+1 weighted by its parameter, an f<i> fragment a down diagonal
from wire i+1 to wire i, and an h<j> fragment puts the weight on the
horizontal edge of wire j.  All other edges have weight 1 and every
edge is oriented left to right; sources and sinks are numbered bottom
to top.  A scheme is its own network: build_network returns it.

Matrix entries are sums of path weights and minors are sums of weights
of vertex-disjoint path families (Lindstrom's lemma).  Both are computed
by one sweep over the fragments that moves a set of tokens along the
wires: a diagonal may be taken only when its target wire is free, which
is exactly the vertex-disjointness constraint, and token order is
preserved, so every family is counted once with coefficient 1.
sweep_matrix, behind product and evaluate_network, sweeps one token per
row with Fraction weights; the tests sweep token sets with polynomial
weights to read each minor as a path-family polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch
from .linalg import Matrix, exact_scalar
from .schemes import E, H


def sweep(word, sources, one, scale):
    """Token-set sweep of the network of word, starting at sources.

    Returns a dict mapping each reachable set of sink wires to the total
    weight of the vertex-disjoint path families that end there.  The
    empty family weighs `one`; `scale(weight, k)` multiplies a weight by
    the weight of the edge of symbol k (1-based), so the weights may be
    polynomials or numbers.
    """
    states = {frozenset(sources): one}
    for k, sym in enumerate(word, start=1):
        if sym.kind == H:
            states = {state: scale(w, k) if sym.index in state else w
                      for state, w in states.items()}
            continue
        if sym.kind == E:
            src, dst = sym.index, sym.index + 1
        else:
            src, dst = sym.index + 1, sym.index
        nxt = {}
        for state, w in states.items():
            nxt[state] = nxt[state] + w if state in nxt else w
            if src in state and dst not in state:
                moved = state - {src} | {dst}
                w = scale(w, k)
                nxt[moved] = nxt[moved] + w if moved in nxt else w
        states = nxt
    return states


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
    """Numeric product matrix of the network at the parameter vector."""
    return sweep_matrix(network.n, network.word,
                        parameters(values, network.length))


def sweep_matrix(n, word, values):
    """The product matrix of word at checked parameters: one sweep per
    row, with Fraction weights.

    The sweep from source i carries one token, and its final states are
    the singletons {j} weighted by entry (i, j).
    """
    one, zero = Fraction(1), Fraction(0)

    def scale(w, k):
        return w * values[k - 1]

    rows = []
    for i in range(1, n + 1):
        ends = sweep(word, (i,), one, scale)
        rows.append([ends.get(frozenset((j,)), zero) for j in range(1, n + 1)])
    return Matrix(rows)
