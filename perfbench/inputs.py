"""Seeded benchmark inputs, generated without importing tpfact.

Every input is plain data: a scheme is a tuple of tokens such as
("h2", "f1", "e1", "h1"), a parameter vector a tuple of Fractions, and a
permutation a one-line tuple.  The program under test only ever sees
the finished inputs, so a change to tpfact cannot change what is run.

Inputs come in blocks of fixed composition (every combination of size,
cell kind, bit size and sign pattern once, in seeded order), so any
whole number of blocks carries the same traffic mix whatever the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

BIT_SIZES = (4, 32)


@dataclass(frozen=True)
class SchemeOp:
    """One scheme with parameters; `negated` is the 1-based position of
    the e/f parameter whose sign was flipped, or 0 when all are positive."""

    n: int
    cell: str          # "open" or "random"
    u: tuple
    v: tuple
    word: tuple
    params: tuple
    bits: int
    negated: int

    @property
    def positive(self):
        return self.negated == 0

    @property
    def is_open(self):
        w0 = tuple(range(self.n, 0, -1))
        return self.u == w0 and self.v == w0

    def describe(self):
        return {"n": self.n, "cell": self.cell, "u": one_line(self.u),
                "v": one_line(self.v), "bits": self.bits,
                "signs": "all+" if self.positive else "one-",
                "negated": self.negated}


def one_line(perm):
    return "".join(str(a) for a in perm)


def length(perm):
    return sum(1 for i, a in enumerate(perm) for b in perm[i + 1:] if a > b)


def random_permutation(n, rng):
    line = list(range(1, n + 1))
    rng.shuffle(line)
    return tuple(line)


def reduced_word(perm, rng):
    """A random reduced word for `perm`.

    Walks from `perm` down to the identity, each step undoing a random
    right descent i (perm(i) > perm(i+1)) by a right multiplication with
    s_i; the letters read backwards multiply out to `perm`.
    """
    line = list(perm)
    letters = []
    while True:
        descents = [i for i in range(1, len(line)) if line[i - 1] > line[i]]
        if not descents:
            return tuple(reversed(letters))
        i = rng.choice(descents)
        line[i - 1], line[i] = line[i], line[i - 1]
        letters.append(i)


def shuffled_word(u, v, rng):
    """Interleave a reduced word of v (e), one of u (f) and h1..hn in a
    random order; each subword keeps its own order."""
    n = len(u)
    e_word = [f"e{i}" for i in reduced_word(v, rng)]
    f_word = [f"f{i}" for i in reduced_word(u, rng)]
    h_word = [f"h{j}" for j in random_permutation(n, rng)]
    kinds = ["e"] * len(e_word) + ["f"] * len(f_word) + ["h"] * n
    rng.shuffle(kinds)
    streams = {"e": iter(e_word), "f": iter(f_word), "h": iter(h_word)}
    return tuple(next(streams[k]) for k in kinds)


def random_parameter(bits, rng):
    """A positive rational whose numerator and denominator, in lowest
    terms, both have exactly `bits` bits."""
    lo, hi = 1 << (bits - 1), (1 << bits) - 1
    while True:
        p, q = rng.randint(lo, hi), rng.randint(lo, hi)
        if math.gcd(p, q) == 1:
            return Fraction(p, q)


def scheme_op(n, cell, bits, negate, rng):
    """Draw one scheme and its parameters.

    A negated op needs an e/f symbol to negate, so its random cell is
    redrawn until it is not the identity cell.
    """
    w0 = tuple(range(n, 0, -1))
    while True:
        u, v = ((w0, w0) if cell == "open"
                else (random_permutation(n, rng), random_permutation(n, rng)))
        if not negate or length(u) + length(v) > 0:
            break
    word = shuffled_word(u, v, rng)
    params = [random_parameter(bits, rng) for _ in word]
    negated = 0
    if negate:
        crossings = [p for p, tok in enumerate(word, 1) if tok[0] in "ef"]
        negated = rng.choice(crossings)
        params[negated - 1] = -params[negated - 1]
    return SchemeOp(n, cell, u, v, word, tuple(params), bits, negated)


def scheme_block(sizes, sign_pattern, rng):
    """One block: every (n, cell, bits, sign) combination once, shuffled.

    `sign_pattern` lists the negate flags of one stratum, e.g.
    (False, False, False, True) for one negated op in four.
    """
    combos = list(itertools.product(sizes, ("open", "random"), BIT_SIZES,
                                    sign_pattern))
    rng.shuffle(combos)
    return [scheme_op(n, cell, bits, negate, rng)
            for n, cell, bits, negate in combos]


def random_rational_matrix(n, rng):
    """Entries p/q with |p| <= 9 and 1 <= q <= 9."""
    return tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(n)) for _ in range(n))


def all_permutations(n):
    return list(itertools.permutations(range(1, n + 1)))


def gl3_cells(rng):
    """The 36 double cells (u, v) of GL_3 in seeded order."""
    cells = list(itertools.product(all_permutations(3), repeat=2))
    rng.shuffle(cells)
    return cells
