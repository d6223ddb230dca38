"""Superseded implementations kept as test oracles.

The library no longer carries these; the tests compare the library's
faster or leaner routines against them.

- All of S_n as a list, in lexicographic one-line order.  The library
  generates the candidates of a Bruhat classification one at a time
  in that order; the tests loop over every cell of a small group.
- Reduced-word enumeration and the left weak order on permutations.
- Chamber sets read off the line labels at every word position, and the
  three local-move predicates tested one pair or triple at a time.
- The big-chamber solver: every crossing parameter read off four big
  chambers, each end monomial evaluated afresh from chamber minors.
- The paper's explicit formulas: the product map as the ordered product
  of elementary Jacobi matrices, the twist as a product of dense
  matrices (the signed permutations and d0 included) whose Gaussian
  factors and inverse come from the textbook minor formulas, and each
  chamber minor of the twist as the inverse of a monomial in the
  parameters.
- Path polynomials: each minor of a scheme's product as the polynomial
  of vertex-disjoint path families in its network (Lindstrom's lemma),
  read off a token-set sweep along the wires with Polynomial weights.
  The library multiplies out the elementary factors instead.
- The Fekete families as lists of solid intervals, where the library
  reads them off the chamber families of the two Fekete schemes.
- Total nonnegativity and total positivity by definition, every minor
  of every order, and the w-chamber sets by filtering every subset.
- Inputs that do not come from the product map: every Cauchon diagram,
  and restoration, the inverse of the Cauchon pass, which turns a
  nonnegative filling of a diagram into a TNN matrix.
- Minors by Bareiss's fraction-free elimination, the recurrence the
  library used before its one Gaussian elimination, and Gaussian
  decomposability read off the leading principal minors.
- The index-set check of a minor in two passes per set, first the
  range of every index and then their order, as the library made it
  before its one-pass check.
- Bruhat cell membership with one `minor` call per condition, the
  nonvanishing ones included.
- The h-commutation spelled out case by case (h on either side, j = i,
  j = i + 1 or another j), and exchange certificates found by trying the
  Dodgson pattern, then both orientations and both versions of the
  three-term identity.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from tpfact.bruhat import double_cell_of
from tpfact.errors import (ArityMismatch, BadToken, DecompositionFailure,
                           IndexOutOfRange, NotAnExchange, PreconditionError,
                           PreconditionViolated, Singular, SizeMismatch,
                           ValidationError, WrongCell, ZeroDiagonal)
from tpfact.identities import (ExchangeCertificate, dodgson_terms,
                               plucker_terms)
from tpfact.linalg import Matrix, check_index_pair, det, minor
from tpfact.permutations import Permutation, signed_representative
from tpfact.product_map import parameters
from tpfact.schemes import (BRAID3, E, F, H, MIXED2, TRIVIAL2,
                            FactorizationScheme, apply_move,
                            build_arrangement)
from tpfact.solver import chamber_minor
from tpfact.twist import twist


class ZeroParameter(PreconditionError):
    """A parameter that a reference formula recovers or divides by is zero."""


# ---------------------------------------------------------------------------
# permutations and reduced words


def all_permutations(n):
    """All of S_n, in lexicographic one-line order."""
    return [Permutation(p) for p in permutations(range(1, n + 1))]


def right_descents(w):
    line = w.oneline
    return [i for i in range(1, w.n) if line[i - 1] > line[i]]


@lru_cache(maxsize=None)
def reduced_words(w):
    """All reduced words of w, as a frozenset of tuples of letters.

    Depth-first search through length-decreasing simple reflections.
    """
    if w.length() == 0:
        return frozenset({()})
    words = set()
    for i in right_descents(w):
        shorter = w * Permutation.simple(w.n, i)
        for word in reduced_words(shorter):
            words.add(word + (i,))
    return frozenset(words)


def weak_order_leq(wp, w):
    """Left weak order: wp precedes w iff lengths add along wp^-1 w."""
    if wp.n != w.n:
        raise ValidationError("permutations must have the same size")
    return w.length() == wp.length() + (wp.inverse() * w).length()


# ---------------------------------------------------------------------------
# chamber sets and local moves


def line_states(n, word):
    """Line labels at heights 1..n at every word position 0..l.

    E-lines start as 1..n at the left border and swap at E-crossings;
    F-lines end as 1..n at the right border and swap at F-crossings.
    """
    state = list(range(1, n + 1))
    e_states = [tuple(state)]
    for sym in word:
        if sym.kind == E:
            i = sym.index
            state[i - 1], state[i] = state[i], state[i - 1]
        e_states.append(tuple(state))
    state = list(range(1, n + 1))
    f_states = [tuple(state)]
    for sym in reversed(word):
        if sym.kind == F:
            i = sym.index
            state[i - 1], state[i] = state[i], state[i - 1]
        f_states.append(tuple(state))
    f_states.reverse()
    return e_states, f_states


def chamber_sets(n, word):
    """(level, start, I, J) per chamber, by level, then left to right.

    A level-k chamber starts at the left border or just right of a
    level-k crossing; I and J sort the lowest k F- and E-line labels.
    """
    e_states, f_states = line_states(n, word)
    chambers = []
    for k in range(n + 1):
        starts = [0] + [p for p, sym in enumerate(word, 1)
                        if sym.kind != H and sym.index == k]
        chambers += [(k, a, tuple(sorted(f_states[a][:k])),
                      tuple(sorted(e_states[a][:k]))) for a in starts]
    return chambers


def isotopy_key(scheme):
    return tuple(sorted((row_set, col_set) for _, _, row_set, col_set
                        in chamber_sets(scheme.n, scheme.word)))


def chamber_minor_family(scheme):
    u, vinv = scheme.u, scheme.v.inverse()
    return [(u.apply(row_set), vinv.apply(col_set)) for level, _, row_set,
            col_set in chamber_sets(scheme.n, scheme.word) if level]


def trivial2_ok(a, b):
    if a.kind == H or b.kind == H:
        return not (a.kind == H and b.kind == H and a.index == b.index)
    if a.kind == b.kind:
        return abs(a.index - b.index) >= 2
    return a.index != b.index


def braid3_ok(a, b, c):
    return (a.kind == c.kind and a.kind in (E, F) and b.kind == a.kind
            and a.index == c.index and abs(a.index - b.index) == 1)


def mixed2_ok(a, b):
    return {a.kind, b.kind} == {E, F} and a.index == b.index


def moved_word(word, kind, p):
    """The word after the move at 1-based position p, or None if it does
    not apply there."""
    word = tuple(word)
    if kind == BRAID3:
        if 1 <= p <= len(word) - 2 and braid3_ok(*word[p - 1:p + 2]):
            a, b = word[p - 1], word[p]
            return word[:p - 1] + (b, a, b) + word[p + 2:]
        return None
    ok = {TRIVIAL2: trivial2_ok, MIXED2: mixed2_ok}[kind]
    if 1 <= p <= len(word) - 1 and ok(word[p - 1], word[p]):
        return word[:p - 1] + (word[p], word[p - 1]) + word[p + 1:]
    return None


def moves(word):
    """Applicable (kind, position) pairs: trivial2 and mixed2 by
    position, then braid3 by position."""
    pairs = [(kind, p) for p in range(1, len(word))
             for kind in (TRIVIAL2, MIXED2)
             if moved_word(word, kind, p) is not None]
    return pairs + [(BRAID3, p) for p in range(1, len(word) - 1)
                    if moved_word(word, BRAID3, p) is not None]


# ---------------------------------------------------------------------------
# the big-chamber solver


@dataclass(frozen=True)
class BigChamber:
    """Maximal crossing-free interval of one pseudoline family."""

    kind: str  # E or F
    level: int
    start: int
    end: int


def big_chambers(scheme, kind, level):
    """Big chambers of the given family at one level, left to right."""
    l = scheme.length
    cuts = [p for p in range(1, l + 1)
            if scheme.word[p - 1].kind == kind
            and scheme.word[p - 1].index == level]
    bounds = [0] + cuts + [l + 1]
    return [BigChamber(kind, level, a, b) for a, b in zip(bounds, bounds[1:])]


def pi_monomial(levels, xprime, level):
    """The level monomial Pi_level(x'), levels being the scheme's
    build_arrangement; Pi_0 is 1."""
    if level == 0:
        return Fraction(1)
    value = Fraction(1)
    for c in levels[level]:
        if c.type == "FE":
            value *= chamber_minor(xprime, c)
        elif c.type == "EF":
            value /= chamber_minor(xprime, c)
    return value


def big_chamber_monomial(levels, xprime, big, side):
    """The left- or right-end Laurent monomial of a big chamber.

    Taking the right end: start from the minor of the small chamber
    finishing at the big chamber's right boundary, then for every small
    chamber of the same level strictly to the right multiply when its
    type is (other kind)(own kind) and divide when it is the reverse.
    The starting minor is replaced by 1 when an E-family big chamber
    reaches the right border; mirror everything for the left end, with
    the exemption there applying to the F-family at the left border.
    """
    own, other = big.kind, (E if big.kind == F else F)
    small = levels[big.level]
    value = Fraction(1)
    if side == "right":
        anchor = next(c for c in small if c.end == big.end)
        if not (own == E and anchor is small[-1]):
            value *= chamber_minor(xprime, anchor)
        for c in small:
            if c.start >= big.end:
                if c.type == other + own:
                    value *= chamber_minor(xprime, c)
                elif c.type == own + other:
                    value /= chamber_minor(xprime, c)
    elif side == "left":
        anchor = next(c for c in small if c.start == big.start)
        if not (own == F and anchor.start == 0):
            value *= chamber_minor(xprime, anchor)
        for c in small:
            if c.end <= big.start:
                if c.type == own + other:
                    value *= chamber_minor(xprime, c)
                elif c.type == other + own:
                    value /= chamber_minor(xprime, c)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return value


def _surrounding_big_chambers(scheme, position):
    """Above, below, left, right big chambers of a crossing."""
    sym = scheme.word[position - 1]
    level = sym.index
    above = next(b for b in big_chambers(scheme, sym.kind, level + 1)
                 if b.start < position < b.end)
    below = next(b for b in big_chambers(scheme, sym.kind, level - 1)
                 if b.start < position < b.end)
    same = big_chambers(scheme, sym.kind, level)
    left = next(b for b in same if b.end == position)
    right = next(b for b in same if b.start == position)
    return above, below, left, right


def reference_solve(scheme, x):
    """Parameters of x along the scheme, one big-chamber search per crossing."""
    u, v = scheme.cell_type
    xprime = twist(x, u, v)
    levels = build_arrangement(scheme)
    values = []
    for position, sym in enumerate(scheme.word, start=1):
        if sym.kind == H:
            t = (pi_monomial(levels, xprime, sym.index)
                 / pi_monomial(levels, xprime, sym.index - 1))
        else:
            above, below, left, right = _surrounding_big_chambers(
                scheme, position)
            upper_side = ("left" if scheme.h_position(sym.index + 1) > position
                          else "right")
            lower_side = ("left" if scheme.h_position(sym.index) > position
                          else "right")
            t = (big_chamber_monomial(levels, xprime, above, upper_side)
                 * big_chamber_monomial(levels, xprime, below, lower_side)
                 / big_chamber_monomial(levels, xprime, left, upper_side)
                 / big_chamber_monomial(levels, xprime, right, lower_side))
        if t == 0:
            raise ZeroParameter(f"parameter at position {position} came out zero")
        values.append(t)
    return values


# ---------------------------------------------------------------------------
# the paper's explicit formulas


def elementary(n, symbol, t):
    """The elementary Jacobi matrix of one scheme symbol: I + t E_{i,i+1}
    for e<i>, I + t E_{i+1,i} for f<i>, and t at (i, i) for h<i>."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    i = symbol.index
    r, c = {E: (i - 1, i), F: (i, i - 1), H: (i - 1, i - 1)}[symbol.kind]
    rows[r][c] = Fraction(t)
    return Matrix(rows)


def elementary_product(scheme, values):
    """The product map: the ordered product of the elementary matrices."""
    x = Matrix.identity(scheme.n)
    for symbol, t in zip(scheme.word, values):
        x = x * elementary(scheme.n, symbol, t)
    return x


def diagonal_matrix(entries):
    entries = list(entries)
    n = len(entries)
    return Matrix([[entries[i] if i == j else 0 for j in range(n)]
                   for i in range(n)])


def alternating_diagonal(n):
    return diagonal_matrix([(-1) ** i for i in range(n)])


def _unit_lower_factor(z, lead):
    """[z]_- by its minor formula: entry (i, j), i > j, is
    D([1, j-1] u {i}, [1, j]) / D([1, j], [1, j]), where lead[j] holds
    the leading principal minor D([1, j], [1, j])."""
    n = z.n
    return Matrix([[reference_minor(z, tuple(range(1, j)) + (i,),
                                    tuple(range(1, j + 1))) / lead[j]
                    if i > j else int(i == j)
                    for j in range(1, n + 1)] for i in range(1, n + 1)])


def reference_gaussian_factors(z):
    """z = [z]_- [z]_0 [z]_+ from minors alone, each by Bareiss: [z]_0
    holds the ratios of consecutive leading principal minors, [z]_+ is
    [z^T]_- transposed, and the first vanishing leading principal minor
    raises DecompositionFailure.  Returns [z]_-, the diagonal of [z]_0
    and [z]_+."""
    n = z.n
    lead = [Fraction(1)] + [reference_minor(z, range(1, k + 1), range(1, k + 1))
                            for k in range(1, n + 1)]
    for k in range(1, n + 1):
        if lead[k] == 0:
            raise DecompositionFailure("no Gaussian decomposition: leading "
                                       f"principal minor of order {k} vanishes")
    return (_unit_lower_factor(z, lead),
            [lead[k] / lead[k - 1] for k in range(1, n + 1)],
            _unit_lower_factor(z.transpose(), lead).transpose())


def reference_inverse(x):
    """x^{-1} as the adjugate over the determinant: entry (i, j) is
    (-1)^(i+j) D([1, n] - {j}, [1, n] - {i}) / det x, by Bareiss."""
    full = range(1, x.n + 1)
    d = reference_minor(x, full, full)

    def rest(k):
        return tuple(a for a in full if a != k)

    return Matrix([[(-1) ** (i + j) * reference_minor(x, rest(j), rest(i)) / d
                    for j in full] for i in full])


def reference_twist(x, u, v):
    """`twist` with its cell check, by the dense formula below."""
    if x.n != u.n or u.n != v.n:
        raise SizeMismatch("matrix and permutations must share one size")
    cell = double_cell_of(x)
    if cell != (u, v):
        raise WrongCell(
            f"matrix lies in the double cell of ({cell[0]}, {cell[1]}), "
            f"not ({u}, {v})")
    return reference_twist_formula(x, u, v)


def reference_twist_formula(x, u, v):
    """The twist formula with ubar, vibar and d0 multiplied in as dense
    matrices: eight products of size n, with the inverse of x^T and both
    Gaussian factors read off minors (`reference_inverse`,
    `reference_gaussian_factors`), so it shares no elimination with the
    library.  No cell check, so it costs no classification at any n."""
    ubar = signed_representative(u)
    vibar = signed_representative(v.inverse())
    xt = x.transpose()
    _, _, left = reference_gaussian_factors(xt * ubar)
    right, _, _ = reference_gaussian_factors(vibar.transpose() * xt)
    middle = ubar.transpose() * reference_inverse(xt) * vibar
    d0 = alternating_diagonal(x.n)  # +-1 on the diagonal: its own inverse
    return d0 * left * middle * right * d0


def _odd_below(state, kind, i, below):
    """Whether an odd number of the lines at the symbol's heights (i and
    i+1 for a crossing, i for a bullet) in state lie in below."""
    if kind == H:
        return state[i - 1] in below
    return (state[i - 1] in below) != (state[i] in below)


def chamber_values_from_parameters(scheme, values):
    """Chamber minors of the twist, straight from the parameters.

    Each chamber minor of x' is the inverse of a product of parameters,
    picked by one parity rule over the line states.  The symbol at word
    position p touches the lines at its heights just before p: two for
    a crossing, one for a bullet.  An E-crossing or a bullet at or
    beyond the chamber's right end counts when exactly one of the
    E-lines it touches runs below the chamber; an F-crossing or a
    bullet at or before the left end mirrors that with F-lines; a
    bullet strictly inside the chamber's span counts when its own line
    lies below the chamber's level.
    Returns a dict mapping each chamber to the value.
    """
    values = parameters(values, scheme.length)
    e_states, f_states = line_states(scheme.n, scheme.word)
    out = {}
    for chamber in [c for level in build_arrangement(scheme) for c in level]:
        product = Fraction(1)
        for position, (kind, i) in enumerate(scheme.word, start=1):
            if kind != F and position >= chamber.end:
                hit = _odd_below(e_states[position - 1], kind, i, chamber.col_set)
            elif kind != E and position <= chamber.start:
                hit = _odd_below(f_states[position - 1], kind, i, chamber.row_set)
            else:
                hit = kind == H and i <= chamber.level
            if hit:
                if values[position - 1] == 0:
                    raise ZeroParameter(
                        f"parameter at position {position} is zero but required")
                product *= values[position - 1]
        out[chamber] = 1 / product
    return out


# ---------------------------------------------------------------------------
# path polynomials


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


def sweep(word, sources, one, scale):
    """Token-set sweep of the network of word, starting at sources.

    Returns a dict mapping each reachable set of sink wires to the total
    weight of the vertex-disjoint path families that end there.  The
    empty family weighs `one`; `scale(weight, k)` multiplies a weight by
    the weight of the edge of symbol k (1-based), so the weights may be
    polynomials or numbers.

    A diagonal may be taken only when its target wire is free, which is
    exactly the vertex-disjointness constraint, and token order is
    preserved, so every family is counted once with coefficient 1.
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


def symbolic_entry(scheme, i, j):
    """Entry (i, j) of the scheme's product as a path polynomial."""
    return symbolic_minor(scheme, (i,), (j,))


def symbolic_minor(scheme, row_set, col_set):
    """Minor of the scheme's product as the polynomial of the
    vertex-disjoint path families in its network (Lindstrom's lemma):
    the token-set sweep, with Polynomial weights."""
    rows, cols = check_index_pair(row_set, col_set, scheme.n)
    one = Polynomial.constant(scheme.length, 1)
    ends = sweep(scheme.word, rows, one, Polynomial.times_variable)
    return ends.get(frozenset(cols), Polynomial(scheme.length))


# ---------------------------------------------------------------------------
# minors


def reference_minor(x, rows, cols):
    """Minor by Bareiss elimination on the submatrix; each division by
    the previous pivot is exact."""
    k = len(rows)
    if k == 0:
        return Fraction(1)
    m = [[x.rows[i - 1][j - 1] for j in cols] for i in rows]
    sign = 1
    prev = Fraction(1)
    for c in range(k - 1):
        pivot = next((r for r in range(c, k) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, k):
            for c2 in range(c + 1, k):
                m[r][c2] = (m[r][c2] * m[c][c] - m[r][c] * m[c][c2]) / prev
            m[r][c] = Fraction(0)
        prev = m[c][c]
    return sign * m[k - 1][k - 1]


def reference_check_index_pair(row_set, col_set, n):
    """check_index_pair as two passes over each set: every index in
    [1, n] first, then strictly increasing; the sizes last."""
    pair = tuple(tuple(indices) for indices in (row_set, col_set))
    for indices in pair:
        for a in indices:
            if type(a) is not int or not 1 <= a <= n:
                raise IndexOutOfRange(f"index {a!r} outside [1, {n}]")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise IndexOutOfRange(f"index set {indices} is not strictly increasing")
    rows, cols = pair
    if len(rows) != len(cols):
        raise SizeMismatch(f"row set size {len(rows)} != column set size {len(cols)}")
    return pair


def leading_principal_minors(x):
    return [minor(x, tuple(range(1, k + 1)), tuple(range(1, k + 1)))
            for k in range(1, x.n + 1)]


def in_G0(x):
    """Is x Gaussian decomposable (all leading principal minors nonzero)?"""
    return all(m != 0 for m in leading_principal_minors(x))


# ---------------------------------------------------------------------------
# Bruhat cells


def reference_in_bruhat_cell(x, w):
    """Is x in the upper Bruhat cell of w?  One `minor` call for each
    nonvanishing minor (rows w([1,i]), columns [1,i], i < n) and each
    vanishing one."""
    if det(x) == 0:
        raise Singular("Bruhat decomposition needs an invertible matrix")
    n = x.n
    for i in range(1, n):
        rows = tuple(sorted(w(a) for a in range(1, i + 1)))
        if minor(x, rows, tuple(range(1, i + 1))) == 0:
            return False
    for i in range(1, n):
        prefix = [w(a) for a in range(1, i)]
        for j in range(i + 1, n + 1):
            if w(i) < w(j):
                rows = tuple(sorted(prefix + [w(j)]))
                if minor(x, rows, tuple(range(1, i + 1))) != 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# total positivity


def _all_minors(x):
    index_sets = [c for k in range(1, x.n + 1)
                  for c in combinations(range(1, x.n + 1), k)]
    return (minor(x, rows, cols)
            for rows in index_sets for cols in index_sets
            if len(rows) == len(cols))


def reference_is_tnn(x):
    """Totally nonnegative by definition: all C(2n, n) - 1 minors are >= 0."""
    return all(value >= 0 for value in _all_minors(x))


def reference_is_tp(x):
    """Totally positive by definition: all C(2n, n) - 1 minors are > 0."""
    return all(value > 0 for value in _all_minors(x))


def cauchon_diagrams(n):
    """Every n x n Cauchon diagram, as the frozenset of its black squares
    (0-based): a square is black only when every square to its left or
    every square above it is black.  There are 14, 230 and 6,902 for
    n = 2, 3 and 4."""
    squares = [(i, j) for i in range(n) for j in range(n)]

    def grow(k, black):
        if k == len(squares):
            yield black
            return
        yield from grow(k + 1, black)
        i, j = squares[k]
        if (all((i, c) in black for c in range(j))
                or all((r, j) in black for r in range(i))):
            yield from grow(k + 1, black | {(i, j)})

    return list(grow(0, frozenset()))


def restore(c):
    """The matrix whose Cauchon matrix is c, a list of rows of Fractions.

    Undoes the deleting-derivations pass step by step: for (s, t) from
    (2, 2) in lexicographic order, when c_st is nonzero, add
    c_it c_sj / c_st to every c_ij with i < s and j < t (Cauchon,
    J. Algebra 260, 2003).  A nonnegative c whose zeros form a Cauchon
    diagram restores to a TNN matrix.
    """
    a = [list(row) for row in c]
    n = len(a)
    for s in range(1, n):
        for t in range(1, n):
            if a[s][t]:
                for i in range(s):
                    for j in range(t):
                        a[i][j] += a[i][t] * a[s][j] / a[s][t]
    return Matrix(a)


def reference_first_negative_minor(x):
    """(rows, cols, value) of the first negative minor by size, then rows,
    then columns, each by Bareiss elimination; None when x is TNN."""
    for k in range(1, x.n + 1):
        for rows in combinations(range(1, x.n + 1), k):
            for cols in combinations(range(1, x.n + 1), k):
                value = reference_minor(x, rows, cols)
                if value < 0:
                    return rows, cols, value
    return None


def reference_w_chamber_sets(w):
    """The w-chamber sets by filtering all 2^n subsets of [1, n]."""
    n = w.n
    out = []
    for k in range(1, n + 1):
        for subset in combinations(range(1, n + 1), k):
            chosen = set(subset)
            if all(i in chosen
                   for j in subset for i in range(1, j) if w(i) < w(j)):
                out.append(subset)
    return out


def _solid_intervals(n):
    for k in range(1, n + 1):
        for start in range(1, n - k + 2):
            yield tuple(range(start, start + k))


def reference_fekete_families(n):
    """The two n^2-element solid-minor criteria, by their definition.

    family1: solid minors whose row or column interval contains 1.
    family2: solid minors with min(rows) + max(cols) in {n, n+1}.
    Both are listed by size, then rows, then columns.
    """
    family1, family2 = [], []
    for rows in _solid_intervals(n):
        for cols in _solid_intervals(n):
            if len(rows) != len(cols):
                continue
            if 1 in rows or 1 in cols:
                family1.append((rows, cols))
            if rows[0] + cols[-1] in (n, n + 1):
                family2.append((rows, cols))
    return family1, family2


# ---------------------------------------------------------------------------
# local moves on parameters and their exchange identities


def reference_commute_h(scheme, values, position):
    """Swap an adjacent pair involving a circled symbol, fixing the product,
    one branch per side of h<j> and per j = i, j = i+1 or other j."""
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


def _match_dodgson(a, b):
    rows_a, cols_a = a
    rows_b, cols_b = b
    if len(rows_a) != len(rows_b):
        return None
    ri, rj = set(rows_a) ^ set(rows_b), set(cols_a) ^ set(cols_b)
    if len(ri) != 2 or len(rj) != 2:
        return None
    I = tuple(sorted(set(rows_a) & set(rows_b)))
    J = tuple(sorted(set(cols_a) & set(cols_b)))
    i, ip = sorted(ri)
    j, jp = sorted(rj)
    # the exchanged pair must be the diagonal products (i with j)
    if not ((i in rows_a) == (j in cols_a)):
        return None
    return dodgson_terms(I, J, i, ip, j, jp), "dodgson"


def _match_plucker(a, b):
    """Try both orientations and both versions of the three-term identity."""
    for first, second in ((a, b), (b, a)):
        for transposed in (False, True):
            rows_s, cols_s = first if not transposed else (first[1], first[0])
            rows_l, cols_l = second if not transposed else (second[1], second[0])
            # want rows_l = I + {p}, rows_s = I, cols_l = L+{i,k}, cols_s = L+{j}
            if len(rows_l) != len(rows_s) + 1:
                continue
            if not set(rows_s) <= set(rows_l):
                continue
            extra_p = set(rows_l) - set(rows_s)
            mid = set(cols_s) - set(cols_l)
            ends = set(cols_l) - set(cols_s)
            if len(extra_p) != 1 or len(mid) != 1 or len(ends) != 2:
                continue
            (p,), (j,) = tuple(extra_p), tuple(mid)
            i, k = sorted(ends)
            if not i < j < k:
                continue
            L = tuple(sorted(set(cols_l) & set(cols_s)))
            I = tuple(sorted(rows_s))
            try:
                terms = plucker_terms(I, L, i, j, k, p, transposed)
            except PreconditionViolated:
                continue
            return terms, "plucker-rows" if transposed else "plucker-cols"
    return None


def reference_exchange_certificate(scheme, move):
    """The identity instance behind a braid3 or mixed2 exchange: the
    Dodgson pattern first for a mixed2 move, then every orientation of
    the three-term identity."""
    if move.kind not in (BRAID3, MIXED2):
        raise NotAnExchange(f"{move.kind} moves do not exchange minors")
    before = chamber_minor_family(scheme)
    after = chamber_minor_family(apply_move(scheme, move))
    gone = sorted(set(before) - set(after))
    came = sorted(set(after) - set(before))
    if len(gone) != 1 or len(came) != 1:
        raise NotAnExchange(
            f"move exchanges {len(gone)} against {len(came)} minors, not 1-1")
    old, new = gone[0], came[0]

    matched = None
    if move.kind == MIXED2:
        matched = _match_dodgson(old, new)
    if matched is None:
        matched = _match_plucker(old, new)
    if matched is None:
        raise NotAnExchange(
            f"exchanged pair {old} / {new} fits no identity pattern")
    groups, name = matched
    certificate = ExchangeCertificate(name, (old, new), *groups)

    shared = set(before) & set(after)
    empty = ((), ())
    for pair in certificate.rhs1 + certificate.rhs2:
        if pair not in shared and pair != empty:
            raise NotAnExchange(
                f"companion minor {pair} is not shared by both families")
    if set(certificate.lhs) != {old, new}:
        raise NotAnExchange("identity left side is not the exchanged pair")
    return certificate
