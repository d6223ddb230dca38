"""Factorization schemes and their double pseudoline arrangements.

A scheme over GL_n is a word in symbols of three kinds: e<i> (an
unbarred letter, a crossing of the E-family at level i), f<i> (a barred
letter, an F-crossing at level i), and h<j> (a circled letter, a bullet
on the jth horizontal line).  The e-subword must be a reduced word for
some permutation v, the f-subword a reduced word for some u, and the
h-indices a permutation of 1..n; the pair (u, v) is the type of the
scheme.

The arrangement drawn from a scheme has the E-pseudolines labelled 1..n
bottom-up at the left border and the F-pseudolines labelled 1..n
bottom-up at the right border.  Level-j crossings split the strip
between the jth and (j+1)st horizontal lines into chambers; together
with the bottom and top chambers there are l+1 of them, where l is the
length of the word.  Each chamber C carries the pair (I(C), J(C)):
the labels of the F-lines, respectively E-lines, that run below it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .errors import (BadHPart, BadToken, MoveNotApplicable, NotReducedE,
                     NotReducedF, SizeMismatch)
from .permutations import Permutation

E, F, H = "E", "F", "H"

_TOKEN_RE = re.compile(r"([efh])(\d+)$")


class SchemeSymbol(NamedTuple):
    kind: str  # one of E, F, H
    index: int

    @classmethod
    def parse(cls, token):
        m = _TOKEN_RE.match(token)
        if not m:
            raise BadToken(f"bad scheme token {token!r}")
        kind = {"e": E, "f": F, "h": H}[m.group(1)]
        return cls(kind, int(m.group(2)))

    @property
    def token(self):
        return f"{self.kind.lower()}{self.index}"


class FactorizationScheme(NamedTuple):
    """A validated scheme word over GL_n."""

    n: int
    word: tuple

    @classmethod
    def make(cls, n, word):
        word = tuple(word)
        scheme = cls(n, word)
        scheme.validate()
        return scheme

    def validate(self):
        n = self.n
        h_indices = []
        for sym in self.word:
            if not isinstance(sym.index, int):
                raise BadToken(f"symbol {sym!r} has a non-integer index")
            if sym.kind == H:
                if not 1 <= sym.index <= n:
                    raise BadHPart(f"h-index {sym.index} outside [1, {n}]")
                h_indices.append(sym.index)
            elif sym.kind not in (E, F):
                raise BadToken(f"unknown symbol kind {sym.kind!r} in {sym!r}")
            elif not 1 <= sym.index <= n - 1:
                raise BadToken(
                    f"{sym.token} has level outside [1, {n - 1}] for n={n}")
        if sorted(h_indices) != list(range(1, n + 1)):
            raise BadHPart(
                f"h-part {h_indices} is not a permutation of 1..{n}")
        for name, word, error in (("e", self.e_subword, NotReducedE),
                                  ("f", self.f_subword, NotReducedF)):
            if len(word) != Permutation.from_word(n, word).length():
                raise error(f"{name}-subword {word} is not reduced")

    @property
    def length(self):
        return len(self.word)

    @property
    def e_subword(self):
        return tuple(s.index for s in self.word if s.kind == E)

    @property
    def f_subword(self):
        return tuple(s.index for s in self.word if s.kind == F)

    @property
    def u(self):
        return Permutation.from_word(self.n, self.f_subword)

    @property
    def v(self):
        return Permutation.from_word(self.n, self.e_subword)

    @property
    def cell_type(self):
        return (self.u, self.v)

    def symbol(self, position):
        """1-based access into the word."""
        if not 1 <= position <= self.length:
            raise BadToken(f"position {position} outside [1, {self.length}]")
        return self.word[position - 1]

    def h_position(self, line):
        """Word position of the bullet on the given horizontal line."""
        for p, sym in enumerate(self.word, start=1):
            if sym.kind == H and sym.index == line:
                return p
        raise BadHPart(f"no h{line} in scheme")

    def __str__(self):
        return " ".join(s.token for s in self.word)


def parse_scheme(text):
    """Parse a whitespace-separated token string into a scheme.

    The size n is read off the h-part, which must be a permutation of
    1..n; e/f levels are then checked against it.
    """
    tokens = text.split()
    if not tokens:
        raise BadToken("empty scheme")
    symbols = [SchemeSymbol.parse(t) for t in tokens]
    n = sum(1 for s in symbols if s.kind == H)
    if n == 0:
        raise BadHPart("scheme has no h-part")
    return FactorizationScheme.make(n, symbols)


# ---------------------------------------------------------------------------
# arrangements


class Chamber(NamedTuple):
    """A chamber of the double arrangement.

    start/end are word positions bounding its horizontal extent, with 0
    for the left border and l+1 for the right border.  left_kind and
    right_kind are the kinds of the bounding crossings; the borders act
    as a fictitious E-crossing on the left and F-crossing on the right.
    row_set is I(C) (F-lines below), col_set is J(C) (E-lines below).
    """

    level: int
    start: int
    end: int
    left_kind: str
    right_kind: str
    row_set: tuple
    col_set: tuple

    @property
    def type(self):
        return self.left_kind + self.right_kind

    @property
    def sets(self):
        return (self.row_set, self.col_set)


def _line_states(n, word):
    """Line labels at heights 1..n at every word position 0..l.

    One forward sweep over the E-crossings and one backward sweep over
    the F-crossings: E-lines start as 1..n at the left border, F-lines
    end as 1..n at the right border.
    """
    state = list(range(1, n + 1))
    e_states = [tuple(state)]
    for kind, i in word:
        if kind == E:
            state[i - 1], state[i] = state[i], state[i - 1]
        e_states.append(tuple(state))
    state = list(range(1, n + 1))
    f_states = [tuple(state)]
    for kind, i in reversed(word):
        if kind == F:
            state[i - 1], state[i] = state[i], state[i - 1]
        f_states.append(tuple(state))
    f_states.reverse()
    return e_states, f_states


@lru_cache(maxsize=4096)
def _labels(mask):
    """The sorted labels j whose bits 1 << j are set in mask."""
    return tuple(j for j in range(1, mask.bit_length()) if mask >> j & 1)


def _crossing_sets(n, word):
    """Bitmasks of the lines below the chamber just right of each crossing.

    below[k] holds bit j for each label j at heights 1..k.  A level-i
    crossing swaps the labels at heights i and i+1, so it changes only
    below[i], to below[i-1] plus the label at height i+1, which is
    below[i-1] ^ below[i] ^ below[i+1].  A forward sweep over the
    E-crossings and a backward sweep over the F-crossings give the
    F-masks and the E-masks of the crossings, left to right, and the
    F-masks below[0..n] at the left border, where the E-masks are 1..k.
    No table grows with 2^n: a mask becomes its labels through a bounded
    cache.
    """
    below = [(2 << k) - 2 for k in range(n + 1)]
    e_masks = []
    for kind, i in word:
        if kind == E:
            below[i] ^= below[i - 1] ^ below[i + 1]
        if kind != H:
            e_masks.append(below[i])
    below = [(2 << k) - 2 for k in range(n + 1)]
    f_masks = []
    for kind, i in reversed(word):
        if kind != H:
            f_masks.append(below[i])
        if kind == F:
            below[i] ^= below[i - 1] ^ below[i + 1]
    f_masks.reverse()
    return f_masks, e_masks, below


def _chamber_sets(n, word):
    """(level, start, I, J) for every chamber, by level, then left to right.

    The bottom (level 0) and top (level n) chambers span the strip.  A
    level-k chamber with 0 < k < n starts at the left border or just
    right of a level-k crossing; I and J are the sorted labels of the
    lowest k F-lines and E-lines there.
    """
    f_masks, e_masks, border = _crossing_sets(n, word)
    levels = [[(k, 0, _labels(border[k]), tuple(range(1, k + 1)))]
              for k in range(n + 1)]
    crossings = ((p, i) for p, (kind, i) in enumerate(word, 1) if kind != H)
    for (p, i), f, e in zip(crossings, f_masks, e_masks):
        levels[i].append((i, p, _labels(f), _labels(e)))
    return [chamber for level in levels for chamber in level]


class Arrangement:
    """The double pseudoline arrangement of a scheme.

    e_states[p] / f_states[p] give, for each word position p in 0..l,
    the tuple of line labels at heights 1..n after the first p symbols.
    E-lines start as 1..n on the left; F-lines end as 1..n on the right.
    """

    def __init__(self, scheme):
        self.scheme = scheme
        self.n = scheme.n
        self.e_states, self.f_states = _line_states(scheme.n, scheme.word)
        self.chambers = self._build_chambers()
        self._by_level = {}
        for c in self.chambers:
            self._by_level.setdefault(c.level, []).append(c)

    def _build_chambers(self):
        """Each chamber ends where the next of its level starts, else at l+1."""
        word = self.scheme.word
        l = len(word)
        sets = _chamber_sets(self.n, word)
        chambers = []
        for (level, a, row_set, col_set), following in zip(sets, sets[1:] + [None]):
            b = following[1] if following and following[0] == level else l + 1
            left_kind = E if a == 0 else word[a - 1].kind
            right_kind = F if b == l + 1 else word[b - 1].kind
            chambers.append(
                Chamber(level, a, b, left_kind, right_kind, row_set, col_set))
        return chambers

    def chambers_at_level(self, level):
        return list(self._by_level.get(level, []))


def build_arrangement(scheme):
    return Arrangement(scheme)


def chamber_minor_family(scheme):
    """The minors attached to a scheme: (u I(C), v^-1 J(C)) per chamber.

    The bottom chamber is skipped (its minor is the constant 1); the
    remaining l chambers are listed by level and then left to right.
    """
    u = scheme.u
    vinv = scheme.v.inverse()
    return [(u.apply(row_set), vinv.apply(col_set)) for _, _, row_set, col_set
            in _chamber_sets(scheme.n, scheme.word)[1:]]


def isotopy_key(scheme):
    """Sorted multiset of chamber set pairs; equal keys mean isotopic.

    Bullets never bound a chamber, so the key depends only on n and the
    crossing subword.  Each such pair is swept once and its key shared
    through a cache bounded at 128 entries; one open-cell entry at n = 8
    is about 11 KB, so the cache holds about 1.4 MB at most.
    """
    return _crossing_key(scheme.n, tuple(s for s in scheme.word if s.kind != H))


@lru_cache(maxsize=128)
def _crossing_key(n, word):
    f_masks, e_masks, border = _crossing_sets(n, word)
    pairs = [(_labels(f), _labels(e)) for f, e in zip(f_masks, e_masks)]
    pairs += [(_labels(border[k]), tuple(range(1, k + 1)))
              for k in range(n + 1)]
    pairs.sort()
    return tuple(pairs)


# ---------------------------------------------------------------------------
# moves

TRIVIAL2, BRAID3, MIXED2 = "trivial2", "braid3", "mixed2"


class Move(NamedTuple):
    kind: str
    position: int  # 1-based position of the leftmost symbol involved


def _moves(word):
    """Every (kind, position) that applies to the word.

    Two-symbol moves by position, then braid moves by position.  Two
    neighbours commute (trivial2) unless they are the same bullet, e/f
    crossings of one level (mixed2 swaps those) or same-family crossings
    of adjacent or equal levels.  braid3 turns i j i into j i j within
    one family when |i - j| = 1.
    """
    moves, braids = [], []
    last = len(word) - 1
    for p, ((ka, ia), (kb, ib)) in enumerate(zip(word, word[1:]), 1):
        if ka == H or kb == H:
            if ka != kb or ia != ib:
                moves.append((TRIVIAL2, p))
        elif ka != kb:
            moves.append((TRIVIAL2 if ia != ib else MIXED2, p))
        elif abs(ia - ib) >= 2:
            moves.append((TRIVIAL2, p))
        elif abs(ia - ib) == 1 and p < last and word[p + 1] == word[p - 1]:
            braids.append((BRAID3, p))
    return moves + braids


def _moved_word(word, kind, p):
    """The word after a move that is known to apply to it."""
    if kind == BRAID3:
        a, b = word[p - 1], word[p]
        return word[:p - 1] + (b, a, b) + word[p + 2:]
    return word[:p - 1] + (word[p], word[p - 1]) + word[p + 1:]


def apply_move(scheme, move):
    """Apply a move, returning a new scheme of the same type.

    A move at p depends only on the symbols at p..p+2, so it is checked
    against the moves of that window.
    """
    kind, p = move
    word = tuple(scheme.word)
    if p < 1 or (kind, 1) not in _moves(word[p - 1:p + 2]):
        if kind not in (TRIVIAL2, BRAID3, MIXED2):
            raise MoveNotApplicable(f"unknown move kind {kind!r}")
        raise MoveNotApplicable(f"{kind} at {p} does not apply")
    return FactorizationScheme(scheme.n, _moved_word(word, kind, p))


def available_moves(scheme):
    return [Move(kind, p) for kind, p in _moves(scheme.word)]


# ---------------------------------------------------------------------------
# isotopy type enumeration


class IsotopyNode(NamedTuple):
    key: tuple
    family: tuple  # chamber minor family, sorted
    scheme: FactorizationScheme


class IsotopyGraph:
    """Isotopy classes of schemes of one type, with move adjacency."""

    def __init__(self, nodes, edges):
        self.nodes = nodes  # list of IsotopyNode, sorted by key
        self.edges = edges  # set of (i, j) index pairs, i < j
        self._adjacent = [set() for _ in nodes]
        for i, j in edges:
            self._adjacent[i].add(j)
            self._adjacent[j].add(i)

    def neighbors(self, k):
        return set(self._adjacent[k])

    def is_connected(self):
        if not self.nodes:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            k = frontier.pop()
            for m in self._adjacent[k]:
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        return len(seen) == len(self.nodes)


def seed_scheme(u, v):
    """Some scheme of type (u, v): e-part, then f-part, then h1..hn."""
    n = u.n
    if v.n != n:
        raise SizeMismatch(
            f"u and v must have the same size, got {n} and {v.n}")
    e_word = v.lex_min_reduced_word()
    f_word = u.lex_min_reduced_word()
    word = ([SchemeSymbol(E, i) for i in e_word]
            + [SchemeSymbol(F, i) for i in f_word]
            + [SchemeSymbol(H, j) for j in range(1, n + 1)])
    return FactorizationScheme.make(n, word)


def enumerate_isotopy_types(u, v):
    """Search of the move graph in stack order, quotiented by isotopy.

    Walks every scheme of type (u, v) reachable from seed_scheme(u, v)
    by trivial2, braid3 and mixed2 moves; braid3/mixed2 steps that land
    in a different isotopy class contribute the graph's edges.  Each word
    is keyed once, when first reached.  The walk expands the most
    recently reached unexpanded word first (frontier.pop() on a stack),
    and that order picks each class's representative scheme: the first
    of its words to be reached.
    """
    start = seed_scheme(u, v)
    word_keys = {}  # word -> its class's key, the object held in key_info
    key_info = {}
    edges = set()

    def key_of(scheme):
        key = isotopy_key(scheme)
        info = key_info.get(key)
        if info is None:
            info = key_info[key] = (
                key, sorted(chamber_minor_family(scheme)), scheme)
        word_keys[scheme.word] = info[0]
        return info[0]

    key_of(start)
    frontier = [start]
    while frontier:
        scheme = frontier.pop()
        key = word_keys[scheme.word]
        for kind, p in _moves(scheme.word):
            word = _moved_word(scheme.word, kind, p)
            nkey = word_keys.get(word)
            if nkey is None:
                neighbor = FactorizationScheme(u.n, word)
                nkey = key_of(neighbor)
                frontier.append(neighbor)
            if kind != TRIVIAL2 and nkey is not key:
                edges.add(frozenset((key, nkey)))
    nodes = [IsotopyNode(key, tuple(fam), sch)
             for key, fam, sch in sorted(key_info.values())]
    index = {node.key: k for k, node in enumerate(nodes)}
    edge_idx = {tuple(sorted((index[a], index[b]))) for a, b in
                (tuple(e) for e in edges)}
    return IsotopyGraph(nodes, edge_idx)
