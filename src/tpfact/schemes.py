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

import math
import re
from functools import lru_cache
from typing import NamedTuple

from .errors import (BadHPart, BadToken, MoveNotApplicable, NotReducedE,
                     NotReducedF, SizeMismatch, TooMuchWork)
from .permutations import Permutation

E, F, H = "E", "F", "H"

_TOKEN_RE = re.compile(r"([efh])([0-9]+)")


class SchemeSymbol(NamedTuple):
    kind: str  # one of E, F, H
    index: int

    @classmethod
    def parse(cls, token):
        m = _TOKEN_RE.fullmatch(token)
        if not m:
            raise BadToken(f"bad scheme token {token!r}")
        try:
            index = int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise BadToken(f"scheme token {token[:20]!r}... has an index of "
                           f"{len(m.group(2))} digits") from None
        return cls({"e": E, "f": F, "h": H}[m.group(1)], index)

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
            if type(sym.index) is not int:
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
        u, v, _ = _cell_permutations(n, self.word)
        for name, word, w, error in (("e", self.e_subword, v, NotReducedE),
                                     ("f", self.f_subword, u, NotReducedF)):
            if len(word) != w.length():
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
        return _cell_permutations(self.n, self.word)[0]

    @property
    def v(self):
        return _cell_permutations(self.n, self.word)[1]

    @property
    def cell_type(self):
        return _cell_permutations(self.n, self.word)[:2]

    def h_position(self, line):
        """Word position of the bullet on the given horizontal line."""
        for p, sym in enumerate(self.word, start=1):
            if sym.kind == H and sym.index == line:
                return p
        raise BadHPart(f"no h{line} in scheme")

    def __str__(self):
        return " ".join(s.token for s in self.word)


@lru_cache(maxsize=64)
def _cell_permutations(n, word):
    """(u, v, v^-1) of a scheme word, read off its subwords once per word
    and shared: Permutation is immutable.  The reversed e-subword spells
    v^-1.  An open-cell entry at n = 6 holds about 5 KB, the word
    included, so the cache holds well under 1 MB."""
    e = tuple([s.index for s in word if s.kind == E])
    f = tuple([s.index for s in word if s.kind == F])
    return (Permutation.from_word(n, f), Permutation.from_word(n, e),
            Permutation.from_word(n, e[::-1]))


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


@lru_cache(maxsize=4096)
def _labels(mask):
    """The sorted labels j whose bits 1 << j are set in mask."""
    return tuple(j for j in range(1, mask.bit_length()) if mask >> j & 1)


def build_arrangement(scheme):
    """The chambers of a scheme's arrangement by level: levels[k] holds the
    level-k chambers left to right, k = 0..n.

    The bottom (level 0) and top (level n) chambers span the strip.  A
    level-k chamber with 0 < k < n starts at the left border or just
    right of a level-k crossing and ends at the next one or at the right
    border; I and J are the sorted labels of the lowest k F-lines and
    E-lines there.

    below[k] holds bit j for each label j at heights 1..k.  A level-i
    crossing swaps the labels at heights i and i+1, so it changes only
    below[i], to below[i-1] plus the label at height i+1, which is
    below[i-1] ^ below[i] ^ below[i+1].  A backward sweep over the
    F-crossings gives the F-masks of the crossings and below[0..n] at
    the left border, where the E-masks are 1..k.  A forward sweep over
    the E-crossings gives their E-masks and builds each chamber when the
    next crossing of its level closes it.  No table grows with 2^n: a
    mask becomes its labels through a bounded cache.
    """
    n, word = scheme.n, scheme.word
    below = [(2 << k) - 2 for k in range(n + 1)]
    f_masks = []  # right to left
    for kind, i in reversed(word):
        if kind != H:
            f_masks.append(below[i])
        if kind == F:
            below[i] ^= below[i - 1] ^ below[i + 1]
    # the open chamber of each level: start, left kind, I, J
    opened = [(0, E, _labels(below[k]), tuple(range(1, k + 1)))
              for k in range(n + 1)]
    levels = [[] for _ in opened]
    below = [(2 << k) - 2 for k in range(n + 1)]
    for p, (kind, i) in enumerate(word, 1):
        if kind == E:
            below[i] ^= below[i - 1] ^ below[i + 1]
        if kind != H:
            start, left, rows, cols = opened[i]
            levels[i].append(Chamber(i, start, p, left, kind, rows, cols))
            opened[i] = (p, kind, _labels(f_masks.pop()), _labels(below[i]))
    for k, (start, left, rows, cols) in enumerate(opened):
        levels[k].append(Chamber(k, start, len(word) + 1, left, F, rows, cols))
    return levels


def chamber_minor_family(scheme):
    """The minors attached to a scheme: (u I(C), v^-1 J(C)) per chamber.

    The bottom chamber is skipped (its minor is the constant 1); the
    remaining l chambers are listed by level and then left to right.
    Labels lie in 1..n, so the one-line forms of u and v^-1 map them.
    """
    u, _, vinv = _cell_permutations(scheme.n, scheme.word)
    u, vinv = u.oneline, vinv.oneline
    return [(tuple(sorted([u[j - 1] for j in c.row_set])),
             tuple(sorted([vinv[j - 1] for j in c.col_set])))
            for level in build_arrangement(scheme)[1:] for c in level]


def isotopy_key(scheme):
    """Sorted multiset of chamber set pairs; equal keys mean isotopic.

    Bullets never bound a chamber, so the key depends only on n and the
    crossing subword.  Each such pair is swept once and its key shared
    through a cache bounded at 128 entries; one open-cell entry at n = 8
    is about 11 KB, so the cache holds about 1.4 MB at most.
    """
    return _crossing_key(scheme.n, tuple([s for s in scheme.word if s.kind != H]))


@lru_cache(maxsize=128)
def _crossing_key(n, word):
    levels = build_arrangement(FactorizationScheme(n, word))
    return tuple(sorted(c.sets for level in levels for c in level))


# ---------------------------------------------------------------------------
# moves

TRIVIAL2, BRAID3, MIXED2 = "trivial2", "braid3", "mixed2"


class Move(NamedTuple):
    kind: str
    position: int  # 1-based position of the leftmost symbol involved


def _pair_move(a, b):
    """The one move rule, the kind of move neighbours a b admit: trivial2,
    but mixed2 for e/f crossings of one level, braid3 for same-family
    crossings of adjacent levels (i j i -> j i j) and None for a == b."""
    (ka, ia), (kb, ib) = a, b
    if ka == H or kb == H:
        return TRIVIAL2 if a != b else None
    if ka != kb:
        return TRIVIAL2 if ia != ib else MIXED2
    gap = abs(ia - ib)
    return TRIVIAL2 if gap >= 2 else BRAID3 if gap == 1 else None


def _moves(word):
    """Every applicable (kind, position): two-symbol moves, then braids."""
    pairs = list(enumerate(zip(word, word[1:]), 1))
    moves = [(kind, p) for p, (a, b) in pairs
             if (kind := _pair_move(a, b)) and kind is not BRAID3]
    return moves + [(BRAID3, p) for (p, (a, b)), c in zip(pairs, word[2:])
                    if a == c and _pair_move(a, b) is BRAID3]


def apply_move(scheme, move):
    """Apply a move, returning a new scheme of the same type.

    A move at p depends only on the symbols at p..p+2, so it is checked
    against the moves of that window.  A position that is not an int
    (a bool included) applies nowhere.
    """
    kind, p = move
    word = tuple(scheme.word)
    if type(p) is not int or p < 1 or (kind, 1) not in _moves(word[p - 1:p + 2]):
        if kind not in (TRIVIAL2, BRAID3, MIXED2):
            raise MoveNotApplicable(f"unknown move kind {kind!r}")
        raise MoveNotApplicable(f"{kind} at {p!r} does not apply")
    a, b = word[p - 1:p + 1]
    moved = (b, a, b) if kind == BRAID3 else (b, a)
    return scheme._replace(word=word[:p - 1] + moved + word[p - 1 + len(moved):])


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
        seen, frontier = set(), [0] if self.nodes else []
        while frontier:
            k = frontier.pop()
            if k not in seen:
                seen.add(k)
                frontier.extend(self._adjacent[k])
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


# The walk keys each scheme word of its cell once: 997,920 words, on the
# cell (2314, 4231), take 9 s and 112 MB of peak RSS on a 2-vCPU host.
MAX_WALK_WORDS = 10**6


def walk_word_count(u, v):
    """The scheme words of type (u, v), shuffles of a reduced word of u, one
    of v and an order of h1..hn: R(u) R(v) l! / (l(u)! l(v)!), l = n + l(u)
    + l(v).  A reduced word of w ends in s_i iff w(i) > w(i+1), so R(w) sums
    R(w s_i) over those i, R(e) = 1.  Past MAX_WALK_WORDS it may fall short:
    R stops past the bound, and an n! past it gives the first k! past it."""
    if past := next((f for f in map(math.factorial, range(max(u.n, v.n) + 1))
                     if f > MAX_WALK_WORDS), None):
        return past

    @lru_cache(maxsize=None)
    def reduced(line):
        total = 0
        for i in range(len(line) - 1):
            if line[i] > line[i + 1] and total <= MAX_WALK_WORDS:
                total += reduced(line[:i] + (line[i + 1], line[i]) + line[i + 2:])
        return min(total, MAX_WALK_WORDS + 1) or 1

    lu, lv = u.length(), v.length()
    return (reduced(u.oneline) * reduced(v.oneline)
            * math.factorial(u.n + lu + lv)
            // (math.factorial(lu) * math.factorial(lv)))


def enumerate_isotopy_types(u, v):
    """Search of the move graph in stack order, quotiented by isotopy.

    Walks every scheme of type (u, v) reachable from seed_scheme(u, v)
    by trivial2, braid3 and mixed2 moves; braid3/mixed2 steps that land
    in a different isotopy class contribute the graph's edges.  Each word
    is keyed once, when first reached.  The walk expands the most
    recently reached unexpanded word first (frontier.pop() on a stack),
    and that order picks each class's representative scheme: the first
    of its words to be reached.  It refuses more than MAX_WALK_WORDS words.
    """
    if u.n == v.n and (count := walk_word_count(u, v)) > MAX_WALK_WORDS:
        raise TooMuchWork(
            f"the isotopy walk on ({u}, {v}) would key at least {count:,} "
            f"scheme words, more than MAX_WALK_WORDS = {MAX_WALK_WORDS:,}")
    start = seed_scheme(u, v)
    n, l = start.n, start.length
    # Byte p of a word is the alphabet index of its symbol p (n <= 9 here:
    # at most 25 codes, never the pad 0xff).  table[p][a][b] is None or the
    # (kind, delta) of the move at p when the codes there are a b (a b a for
    # braid3).
    alphabet = sorted(set(start.word))
    kinds = [[_pair_move(sa, sb) for sb in alphabet] for sa in alphabet]
    steps = {TRIVIAL2: -255, MIXED2: -255, BRAID3: 65281}  # ab->ba, aba->bab
    table = [[[kind and (kind, (b - a) * steps[kind] << 8 * p)
               for b, kind in enumerate(row)] for a, row in enumerate(kinds)]
             for p in range(l - 1)]
    # A class gets a dense id when its key is first seen, so a move costs
    # int lookups and an int-pair edge.  A new word often has the crossing
    # subword, and so the very key object, of the word keyed before it
    # (isotopy_key caches keys): then its key is not hashed at all.
    word_ids = {}  # word -> its class's id
    class_ids = {}  # key -> id
    classes = []  # id -> (key, family, representative scheme)
    edges = set()  # (i, j) id pairs, i < j
    last_key = last_id = None
    id_if_seen = word_ids.get  # bound once, as every move calls it

    def id_of(word):
        nonlocal last_key, last_id
        scheme = FactorizationScheme(
            n, tuple(map(alphabet.__getitem__, word.to_bytes(l, "little"))))
        key = isotopy_key(scheme)
        if key is not last_key:
            last_key, last_id = key, class_ids.get(key)
            if last_id is None:
                last_id = class_ids[key] = len(classes)
                family = tuple(sorted(chamber_minor_family(scheme)))
                classes.append((key, family, scheme))
        word_ids[word] = last_id
        return last_id

    word = int.from_bytes(bytes(map(alphabet.index, start.word)), "little")
    id_of(word)
    frontier = [word]
    while frontier:
        word = frontier.pop()
        k = word_ids[word]
        codes = word.to_bytes(l, "little")
        braids = []  # taken after every two-symbol move, in position order
        for rule, a, b, c in zip(table, codes, codes[1:], codes[2:] + b"\xff"):
            move = rule[a][b]
            if move is None:
                continue
            kind, delta = move
            if kind is BRAID3:
                if c == a:
                    braids.append(word + delta)
                continue
            moved = word + delta
            j = id_if_seen(moved)
            if j is None:
                j = id_of(moved)
                frontier.append(moved)
            if kind is MIXED2 and j != k:
                edges.add((k, j) if k < j else (j, k))
        for moved in braids:
            j = id_if_seen(moved)
            if j is None:
                j = id_of(moved)
                frontier.append(moved)
            if j != k:
                edges.add((k, j) if k < j else (j, k))
    order = sorted(range(len(classes)), key=lambda k: classes[k][0])
    rank = [0] * len(order)  # id -> index of its node, sorted by key
    for r, k in enumerate(order):
        rank[k] = r
    return IsotopyGraph([IsotopyNode(*classes[k]) for k in order],
                        {tuple(sorted((rank[i], rank[j]))) for i, j in edges})
