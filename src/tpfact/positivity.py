"""Total positivity tests and criteria generated from schemes.

Three graded tests: the definitions (is_tnn scans every minor; is_tp
reads the n^2 initial minors, which decide total positivity), the
chamber criterion attached to one scheme (positivity of the l modified
chamber minors), and the chamber-set criterion attached to a double
cell (positivity of the minors whose row set is a u^{-1}-chamber set
and whose column set is a v-chamber set).  On matrices of the cell all
three agree with total nonnegativity.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import SizeMismatch, ValidationError
from .linalg import minor, scalar_to_str
from .permutations import Permutation
from .schemes import (E, F, H, FactorizationScheme, SchemeSymbol,
                      chamber_minor_family, enumerate_isotopy_types)


def _all_index_pairs(n):
    for k in range(1, n + 1):
        for rows in combinations(range(1, n + 1), k):
            for cols in combinations(range(1, n + 1), k):
                yield rows, cols


def is_tnn(x):
    """Totally nonnegative: every minor of every order is >= 0."""
    return first_negative_minor(x) is None


def is_tp(x):
    """Totally positive: every minor of every order is > 0.

    Decided from the n^2 initial minors (the solid minors whose row or
    column interval contains 1), which are all positive exactly when x
    is totally positive (Gasca-Pena, after Fekete).
    """
    return all(minor(x, rows, cols) > 0
               for rows, cols in fekete_families(x.n)[0])


def first_negative_minor(x):
    """(rows, cols, value) of the first negative minor, by order, or None."""
    for rows, cols in _all_index_pairs(x.n):
        value = minor(x, rows, cols)
        if value < 0:
            return rows, cols, value
    return None


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
    """Positivity of the scheme's modified chamber minors."""
    if x.n != scheme.n:
        raise SizeMismatch(f"matrix size {x.n} != scheme size {scheme.n}")
    return _family_report(x, chamber_minor_family(scheme))


def w_chamber_sets(w):
    """Subsets closed under: j in S forces every i < j with w(i) < w(j).

    Listed by size, then lexicographically; the empty set is skipped.
    """
    n = w.n
    out = []
    for k in range(1, n + 1):
        for subset in combinations(range(1, n + 1), k):
            chosen = set(subset)
            if all(i in chosen
                   for j in subset for i in range(1, j) if w(i) < w(j)):
                out.append(subset)
    return out


def chamber_set_criterion(u, v, x):
    """Positivity over u^{-1}-chamber row sets and v-chamber column sets."""
    if x.n != u.n or u.n != v.n:
        raise SizeMismatch("matrix and permutations must share one size")
    row_sets = w_chamber_sets(u.inverse())
    col_sets = w_chamber_sets(v)
    family = [(rows, cols)
              for rows in row_sets for cols in col_sets
              if len(rows) == len(cols)]
    return _family_report(x, family)


# ---------------------------------------------------------------------------
# Fekete-style interval criteria


def _solid_intervals(n):
    for k in range(1, n + 1):
        for start in range(1, n - k + 2):
            yield tuple(range(start, start + k))


def fekete_families(n):
    """The two n^2-element solid-minor criteria.

    family1: solid minors whose row or column interval contains 1.
    family2: solid minors with min(rows) + max(cols) in {n, n+1}.
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


def fekete_scheme(n, variant):
    """Schemes whose chamber families are the two interval criteria.

    Both use the lexicographically minimal reduced word for the longest
    element on each side.  Variant 1 puts every unbarred letter before
    every barred one; variant 2 follows each unbarred letter
    immediately by its barred twin.  Bullets go at the end; the
    chamber family does not depend on where they sit.
    """
    word = Permutation.longest_element(n).lex_min_reduced_word()
    symbols = []
    if variant == 1:
        symbols += [SchemeSymbol(E, i) for i in word]
        symbols += [SchemeSymbol(F, i) for i in word]
    elif variant == 2:
        for i in word:
            symbols.append(SchemeSymbol(E, i))
            symbols.append(SchemeSymbol(F, i))
    else:
        raise ValidationError(f"variant must be 1 or 2, got {variant!r}")
    symbols += [SchemeSymbol(H, j) for j in range(1, n + 1)]
    return FactorizationScheme.make(n, symbols)


def fekete_criterion(x, variant):
    if variant not in (1, 2):
        raise ValidationError(f"variant must be 1 or 2, got {variant!r}")
    family1, family2 = fekete_families(x.n)
    return _family_report(x, family1 if variant == 1 else family2)


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
