"""Total positivity tests and criteria generated from schemes.

Three graded tests: total nonnegativity and positivity themselves
(is_tnn, is_tp), the chamber criterion attached to one scheme
(positivity of the l modified chamber minors), and the chamber-set
criterion attached to a double cell (positivity of the minors whose row
set is a u^{-1}-chamber set and whose column set is a v-chamber set).
On matrices of the cell all three agree.

is_tnn and is_tp read the Cauchon matrix of x, the result of the
deleting-derivations algorithm, in O(n^4) exact operations: x is TNN
iff that matrix is nonnegative and its zeros form a Cauchon diagram,
and TP iff it is positive (Goodearl-Launois-Lenagan, Adv. Math. 226,
2011; Launois-Lenagan, Found. Comput. Math. 14, 2014).  This holds for
singular x too.  One pass, _cauchon_matrix, makes every sign test: it
ends early at an entry of x or a pivot that fails, and checks the final
first row and column.  first_negative_minor is the witness search: up
to n = 8 it scans the C(2n, n) - 1 minors by order, and past that it
deletes rows and columns greedily, in O(n^5) exact operations, down to
a negative square minor whose proper minors are all >= 0.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import SizeMismatch, TooMuchWork, ValidationError
from .linalg import Matrix, minor, scalar_to_str
from .permutations import Permutation, check_size
from .schemes import (E, F, H, FactorizationScheme, SchemeSymbol,
                      chamber_minor_family, enumerate_isotopy_types,
                      seed_scheme)


def _all_index_pairs(n):
    for k in range(1, n + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in combinations(range(1, n + 1), k):
                yield rows, cols


def _cauchon_matrix(x, fails):
    """The deleting-derivations pass over x, as a list of rows.

    For (s, t) from (n, n) down in reverse lexicographic order, when the
    current entry a_st is nonzero, subtract a_it a_sj / a_st from every
    a_ij with i < s and j < t.  A pivot in the first row or the first
    column has nothing above or left of it, so those are skipped.

    The pass is also a sign test of every entry: it returns None when
    `fails` holds for an entry of x, for a pivot when the pass reaches it
    (no later step changes a_st), or for an entry of the final first row
    or column (which holds no pivot).
    """
    if any(fails(value) for row in x.rows for value in row):
        return None
    a = [list(row) for row in x.rows]
    for s in range(x.n - 1, 0, -1):
        pivot_row = a[s]
        for t in range(x.n - 1, 0, -1):
            pivot = pivot_row[t]
            if fails(pivot):
                return None
            if not pivot:
                continue
            for row in a[:s]:
                f = row[t] / pivot
                if f:
                    row[:t] = [b - f * c for b, c in zip(row[:t], pivot_row)]
    if any(map(fails, a[0])) or any(fails(row[0]) for row in a):
        return None
    return a


def is_tnn(x):
    """Totally nonnegative: every minor of every order is >= 0.

    Decided from the Cauchon matrix, whose pass stops at the first
    negative entry of x or pivot: all of its entries are >= 0, and each
    zero has only zeros to its left or only zeros above it.  The sign
    tests read numerators, which is several times faster than comparing
    Fractions.
    """
    a = _cauchon_matrix(x, lambda value: value.numerator < 0)
    if a is None:
        return False
    for i, row in enumerate(a):
        for j, value in enumerate(row):
            if not value and any(row[:j]) and any(r[j] for r in a[:i]):
                return False
    return True


def is_tp(x):
    """Totally positive: every minor of every order is > 0.

    Decided from the Cauchon matrix, whose pass stops at the first entry
    of x or pivot that is <= 0: all of its entries are > 0.
    """
    return _cauchon_matrix(x, lambda value: value.numerator <= 0) is not None


def _minimal_negative_minor(x):
    """(rows, cols, value) of a negative minor whose proper minors are
    all >= 0, or None when x is TNN.

    One pass over the rows, then the columns, drops each one whose
    removal leaves a submatrix that is still not TNN (tested by is_tnn
    with zero rows or columns padding it to a square, which adds only
    zero minors).  A row or column kept once stays kept: its removal
    leaves a TNN matrix, and so would its removal from any submatrix.
    What is left loses TNN when any row or column goes, so it is square
    and its one negative minor is its determinant.
    """
    def tnn(rows, cols):
        size = max(len(rows), len(cols))
        return is_tnn(Matrix(
            [[x.rows[i][j] for j in cols] + [0] * (size - len(cols))
             for i in rows] + [[0] * size] * (size - len(rows))))

    rows = cols = range(x.n)
    if tnn(rows, cols):
        return None
    for i in range(x.n):
        fewer = [r for r in rows if r != i]
        if not tnn(fewer, cols):
            rows = fewer
    for j in range(x.n):
        fewer = [c for c in cols if c != j]
        if not tnn(rows, fewer):
            cols = fewer
    rows = tuple(r + 1 for r in rows)
    cols = tuple(c + 1 for c in cols)
    return rows, cols, minor(x, rows, cols)


def _scans_by_order(n):
    """Whether first_negative_minor scans by order: while the C(2n, n) - 1
    minors number at most MAX_CHAMBER_SET_MINORS (n <= 8)."""
    return comb(2 * n, n) - 1 <= MAX_CHAMBER_SET_MINORS


def first_negative_minor(x):
    """(rows, cols, value) of a negative minor, or None when x is TNN.

    While _scans_by_order(n), the first negative one by order: size,
    then rows, then columns.  Past that, the greedy witness of
    _minimal_negative_minor.
    """
    if not _scans_by_order(x.n):
        return _minimal_negative_minor(x)
    for rows, cols in _all_index_pairs(x.n):
        value = minor(x, rows, cols)
        if value < 0:
            return rows, cols, value
    return None


def tnn_report(x):
    """The report of `check --mode all`: is_tnn(x), with the witness of
    first_negative_minor(x) when it is false.

    While the witness is a scan, the verdict comes first and only a
    false one pays for the scan.  Past that, the greedy search's own
    first test of x is the verdict, so x takes one Cauchon pass.
    """
    if _scans_by_order(x.n) and is_tnn(x):
        return CriterionReport(True)
    witness = first_negative_minor(x)
    return CriterionReport(witness is None, witness)


class CriterionReport(NamedTuple):
    verdict: bool
    witness: tuple = None  # (rows, cols, value) of a failing minor

    def to_json(self):
        data = {"verdict": self.verdict}
        if self.witness is not None:
            rows, cols, value = self.witness
            data["witness"] = {"rows": list(rows), "cols": list(cols),
                               "value": scalar_to_str(value)}
        else:
            data["witness"] = None
        return data


def _family_report(x, family):
    for rows, cols in family:
        value = minor(x, rows, cols)
        if value <= 0:
            return CriterionReport(False, (rows, cols, value))
    return CriterionReport(True)


def chamber_criterion(scheme, x):
    """Positivity of the scheme's modified chamber minors; the family
    checks the scheme, before the matrix size."""
    family = chamber_minor_family(scheme)
    if x.n != scheme.n:
        raise SizeMismatch(f"matrix size {x.n} != scheme size {scheme.n}")
    return _family_report(x, family)


def w_chamber_sets(w):
    """Subsets closed under: j in S forces every i < j with w(i) < w(j).

    Listed by size, then lexicographically; the empty set is skipped.
    They are the order ideals of i < j, w(i) < w(j), grown one element
    at a time: j joins each ideal that holds all of its predecessors.
    Past MAX_CHAMBER_SET_MINORS sets it raises TooMuchWork.
    """
    ideals = [()]
    for j in range(1, w.n + 1):
        below = {i for i in range(1, j) if w(i) < w(j)}
        ideals += [s + (j,) for s in ideals if below.issubset(s)]
        if len(ideals) - 1 > MAX_CHAMBER_SET_MINORS:
            raise TooMuchWork(
                f"{w} has more than {MAX_CHAMBER_SET_MINORS:,} chamber sets")
    return sorted(ideals[1:], key=lambda s: (len(s), s))


# `chamber_set_criterion` refuses a family of more minors than this.  It
# covers the open cell up to n = 8, C(16, 8) - 1 = 12,869 minors, which
# `tpfact check --mode chamberset --u 87654321 --v 87654321` evaluates in
# 1.2 s wall (Python 3.11, 2-vCPU host); n = 9 has 48,619.  It is also
# the most minors `first_negative_minor` scans by order.
MAX_CHAMBER_SET_MINORS = 2 * 10**4


def chamber_set_criterion(u, v, x):
    """Positivity over u^{-1}-chamber row sets and v-chamber column sets.

    The family is counted before any minor is evaluated, and past
    MAX_CHAMBER_SET_MINORS raises TooMuchWork.  Each side has a chamber
    set of every size, so the family has at least as many minors as
    either side has sets, and neither side is listed past the bound.
    """
    if x.n != u.n or u.n != v.n:
        raise SizeMismatch("matrix and permutations must share one size")
    row_sets = w_chamber_sets(u.inverse())
    col_sets = w_chamber_sets(v)
    sizes = Counter(map(len, col_sets))
    count = sum(sizes[len(rows)] for rows in row_sets)
    if count > MAX_CHAMBER_SET_MINORS:
        raise TooMuchWork(
            f"the chamber-set family of ({u}, {v}) has {count:,} minors, "
            f"more than MAX_CHAMBER_SET_MINORS = {MAX_CHAMBER_SET_MINORS:,}")
    family = ((rows, cols)
              for rows in row_sets for cols in col_sets
              if len(rows) == len(cols))
    return _family_report(x, family)


# ---------------------------------------------------------------------------
# Fekete-style interval criteria


def _check_variant(variant):
    """Refuse all but the ints 1 and 2, before any cache sees the value."""
    if type(variant) is not int or variant not in (1, 2):
        raise ValidationError(f"variant must be 1 or 2, got {variant!r}")


def fekete_scheme(n, variant):
    """Schemes whose chamber families are the two interval criteria.

    Both use the lexicographically minimal reduced word for the longest
    element on each side.  Variant 1 is the seed scheme of the open cell,
    every unbarred letter before every barred one; variant 2 follows each
    unbarred letter immediately by its barred twin.  Bullets go at the
    end; the chamber family does not depend on where they sit.
    """
    w0 = Permutation.longest_element(n)
    _check_variant(variant)
    if variant == 1:
        return seed_scheme(w0, w0)
    symbols = [SchemeSymbol(kind, i)
               for i in w0.lex_min_reduced_word() for kind in (E, F)]
    symbols += [SchemeSymbol(H, j) for j in range(1, n + 1)]
    return FactorizationScheme.make(n, symbols)


@lru_cache(maxsize=64)
def _fekete_family(n, variant):
    """fekete_scheme(n, variant)'s chamber family by size, rows, cols."""
    family = chamber_minor_family(fekete_scheme(n, variant))
    return tuple(sorted(family, key=lambda pair: (len(pair[0]), pair)))


def fekete_families(n):
    """The two n^2-element solid-minor criteria, the Fekete schemes'
    chamber families: family1, the solid minors whose row or column
    interval contains 1; family2, those with min(rows) + max(cols) in
    {n, n+1}."""
    check_size(n)
    return list(_fekete_family(n, 1)), list(_fekete_family(n, 2))


def fekete_criterion(x, variant):
    _check_variant(variant)
    return _family_report(x, _fekete_family(x.n, variant))


# ---------------------------------------------------------------------------
# the GL_3 catalog

_GL3_LETTERS = {
    ((1,), (1,)): "a", ((1,), (2,)): "b", ((2,), (1,)): "c",
    ((2,), (2,)): "d", ((2,), (3,)): "e", ((3,), (2,)): "f",
    ((3,), (3,)): "g",
    ((2, 3), (2, 3)): "A", ((2, 3), (1, 3)): "B", ((1, 3), (2, 3)): "C",
    ((1, 3), (1, 3)): "D", ((1, 3), (1, 2)): "E", ((1, 2), (1, 3)): "F",
    ((1, 2), (1, 2)): "G",
}

GL3_COMMON_MINORS = (
    ((3,), (1,)), ((1,), (3,)),
    ((2, 3), (1, 2)), ((1, 2), (2, 3)),
    ((1, 2, 3), (1, 2, 3)),
)


class CatalogEntry(NamedTuple):
    code: str
    family: tuple          # all nine minors
    bounded: tuple         # the four that vary between entries
    neighbors: tuple       # codes adjacent under braid3/mixed2 moves


def _gl3_code(bounded):
    letters = sorted(_GL3_LETTERS[pair] for pair in bounded)
    lower = [c for c in letters if c.islower()]
    upper = [c for c in letters if c.isupper()]
    return "".join(sorted(lower) + sorted(upper))


def gl3_criteria_catalog():
    """All total positivity criteria from schemes of the open GL_3 cell.

    Returns a dict keyed by four-letter code (the naming scheme writes
    corner entries in lowercase a..g and 2x2 minors in uppercase A..G).
    Every entry carries nine minors: five shared by all criteria and
    four bounded ones that give the code.
    """
    w0 = Permutation.longest_element(3)
    graph = enumerate_isotopy_types(w0, w0)
    common = set(GL3_COMMON_MINORS)
    entries = []
    for node in graph.nodes:
        family = set(node.family)
        bounded = tuple(sorted(family - common))
        entries.append((_gl3_code(bounded), tuple(sorted(family)), bounded))
    catalog = {}
    for k, (code, family, bounded) in enumerate(entries):
        neighbors = tuple(sorted(entries[m][0] for m in graph.neighbors(k)))
        catalog[code] = CatalogEntry(code, family, bounded, neighbors)
    return catalog
