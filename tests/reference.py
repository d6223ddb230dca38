"""Superseded implementations kept as test oracles.

The library no longer carries these; the tests compare the library's
faster or leaner routines against them.

- Reduced-word enumeration and the left weak order on permutations.
- The big-chamber solver: every crossing parameter read off four big
  chambers, each end monomial evaluated afresh from chamber minors.
- Total positivity by definition: every minor of every order.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from tpfact.errors import ValidationError, ZeroParameter
from tpfact.linalg import minor
from tpfact.permutations import Permutation
from tpfact.schemes import E, F, H, build_arrangement
from tpfact.solver import chamber_minor
from tpfact.twist import twist


# ---------------------------------------------------------------------------
# reduced words


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
# the big-chamber solver


@dataclass(frozen=True)
class BigChamber:
    """Maximal crossing-free interval of one pseudoline family."""

    kind: str  # E or F
    level: int
    start: int
    end: int


def big_chambers(arrangement, kind, level):
    """Big chambers of the given family at one level, left to right."""
    scheme = arrangement.scheme
    l = scheme.length
    cuts = [p for p in range(1, l + 1)
            if scheme.word[p - 1].kind == kind
            and scheme.word[p - 1].index == level]
    bounds = [0] + cuts + [l + 1]
    return [BigChamber(kind, level, a, b) for a, b in zip(bounds, bounds[1:])]


def pi_monomial(arrangement, xprime, level):
    """The level monomial Pi_level(x'); Pi_0 is 1."""
    if level == 0:
        return Fraction(1)
    value = Fraction(1)
    for c in arrangement.chambers_at_level(level):
        if c.type == "FE":
            value *= chamber_minor(xprime, c)
        elif c.type == "EF":
            value /= chamber_minor(xprime, c)
    return value


def big_chamber_monomial(arrangement, xprime, big, side):
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
    small = arrangement.chambers_at_level(big.level)
    value = Fraction(1)
    if side == "right":
        anchor = next(c for c in small if c.end == big.end)
        if not (own == E and anchor.end == arrangement.scheme.length + 1):
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


def _surrounding_big_chambers(arrangement, position):
    """Above, below, left, right big chambers of a crossing."""
    sym = arrangement.scheme.word[position - 1]
    level = sym.index
    above = next(b for b in big_chambers(arrangement, sym.kind, level + 1)
                 if b.start < position < b.end)
    below = next(b for b in big_chambers(arrangement, sym.kind, level - 1)
                 if b.start < position < b.end)
    same = big_chambers(arrangement, sym.kind, level)
    left = next(b for b in same if b.end == position)
    right = next(b for b in same if b.start == position)
    return above, below, left, right


def reference_solve(scheme, x):
    """Parameters of x along the scheme, one big-chamber search per crossing."""
    u, v = scheme.cell_type
    xprime = twist(x, u, v)
    arrangement = build_arrangement(scheme)
    values = []
    for position, sym in enumerate(scheme.word, start=1):
        if sym.kind == H:
            t = (pi_monomial(arrangement, xprime, sym.index)
                 / pi_monomial(arrangement, xprime, sym.index - 1))
        else:
            above, below, left, right = _surrounding_big_chambers(
                arrangement, position)
            upper_side = ("left" if scheme.h_position(sym.index + 1) > position
                          else "right")
            lower_side = ("left" if scheme.h_position(sym.index) > position
                          else "right")
            t = (big_chamber_monomial(arrangement, xprime, above, upper_side)
                 * big_chamber_monomial(arrangement, xprime, below, lower_side)
                 / big_chamber_monomial(arrangement, xprime, left, upper_side)
                 / big_chamber_monomial(arrangement, xprime, right, lower_side))
        if t == 0:
            raise ZeroParameter(f"parameter at position {position} came out zero")
        values.append(t)
    return values


# ---------------------------------------------------------------------------
# total positivity


def reference_is_tp(x):
    """Totally positive by definition: all C(2n, n) - 1 minors are > 0."""
    index_sets = [c for k in range(1, x.n + 1)
                  for c in combinations(range(1, x.n + 1), k)]
    return all(minor(x, rows, cols) > 0
               for rows in index_sets for cols in index_sets
               if len(rows) == len(cols))
