"""Planar networks attached to schemes, and their path polynomials.

The network of a scheme is a left-to-right concatenation of fragments,
one per symbol: an e<i> fragment carries an up diagonal from wire i to
wire i+1 weighted by its parameter, an f<i> fragment a down diagonal
from wire i+1 to wire i, and an h<j> fragment puts the weight on the
horizontal edge of wire j.  All other edges have weight 1 and every
edge is oriented left to right; sources and sinks are numbered bottom
to top.

Matrix entries are sums of path weights and minors are sums of weights
of vertex-disjoint path families.  Both are computed by one sweep over
the fragments that moves a set of tokens along the wires: a diagonal
may be taken only when its target wire is free, which is exactly the
vertex-disjointness constraint, and token order is preserved, so
every family is counted once with coefficient 1.  The symbolic forms
sweep with Polynomial weights; sweep_matrix, behind evaluate_network and
product, sweeps one token per row with Fraction weights.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityMismatch, IndexOutOfRange
from .linalg import Matrix, check_index_pair
from .schemes import E, H


class Polynomial:
    """Sparse polynomial in nvars variables with integer coefficients.

    Terms map exponent tuples to coefficients; printing uses graded
    lexicographic term order and names the variables t1..t<nvars>.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ArityMismatch(
                        f"exponent tuple {expo} has length {len(expo)}, expected {nvars}")
                if coeff:
                    self.terms[tuple(expo)] = coeff

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, k):
        """The variable t_k, 1-based."""
        if not 1 <= k <= nvars:
            raise IndexOutOfRange(f"variable index {k} outside [1, {nvars}]")
        expo = [0] * nvars
        expo[k - 1] = 1
        return cls(nvars, {tuple(expo): 1})

    def _check_arity(self, other):
        if self.nvars != other.nvars:
            raise ArityMismatch(
                f"mixed arities {self.nvars} and {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_arity(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            s = terms.get(expo, 0) + coeff
            if s:
                terms[expo] = s
            else:
                terms.pop(expo, None)
        return Polynomial(self.nvars, terms)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_arity(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(expo, 0) + c1 * c2
                if s:
                    terms[expo] = s
                else:
                    terms.pop(expo, None)
        return Polynomial(self.nvars, terms)

    def times_variable(self, k):
        expo = [0] * self.nvars
        expo[k - 1] = 1
        shift = tuple(expo)
        return Polynomial(self.nvars, {
            tuple(a + b for a, b in zip(e, shift)): c
            for e, c in self.terms.items()})

    def evaluate(self, values):
        values = [Fraction(v) for v in values]
        if len(values) != self.nvars:
            raise ArityMismatch(
                f"{len(values)} values for {self.nvars} variables")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in zip(values, expo):
                if e:
                    term *= v ** e
            total += term
        return total

    def coefficients_positive(self):
        return all(c > 0 for c in self.terms.values())

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo, coeff in self._sorted_terms():
            factors = [f"t{k + 1}" if e == 1 else f"t{k + 1}^{e}"
                       for k, e in enumerate(expo) if e]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Polynomial({self})"


class PlanarNetwork:
    """The weighted network of a scheme."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.n = scheme.n
        self.nvars = scheme.length


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
    return PlanarNetwork(scheme)


def symbolic_entry(network, i, j):
    """Entry (i, j) of the product matrix as a path polynomial."""
    return symbolic_minor(network, (i,), (j,))


def symbolic_minor(network, row_set, col_set):
    """Minor as a vertex-disjoint path family polynomial."""
    rows, cols = check_index_pair(row_set, col_set, network.n)
    one = Polynomial.constant(network.nvars, 1)
    ends = sweep(network.scheme.word, rows, one, Polynomial.times_variable)
    return ends.get(frozenset(cols), Polynomial(network.nvars))


def parameters(values, length):
    """The parameter vector as Fractions, one per symbol of a
    length-`length` scheme."""
    values = [Fraction(v) for v in values]
    if len(values) != length:
        raise ArityMismatch(
            f"{len(values)} parameters for a length-{length} scheme")
    return values


def evaluate_network(network, values):
    """Numeric product matrix of the network at the parameter vector."""
    return sweep_matrix(network.n, network.scheme.word,
                        parameters(values, network.nvars))


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
