"""Determinantal identities and exchange certificates for moves.

Two families: the three-term identity (rows fixed up to one added
index, columns moving among {i, j, k}) in both a column and a row
version, and the Dodgson condensation identity.  A braid3 or mixed2
move exchanges exactly one minor of a scheme's chamber family; the
certificate constructor recovers the identity instance that ties the
exchanged pair to four minors the two families share.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import NotAnExchange, PreconditionViolated, TooMuchWork
from .linalg import Matrix, minor
from .schemes import BRAID3, MIXED2, apply_move, chamber_minor_family


def _require(cond, message):
    if not cond:
        raise PreconditionViolated(message)


def _sorted_union(*parts):
    out = set()
    for part in parts:
        out.update(part)
    return tuple(sorted(out))


def _products_add_up(x, groups):
    """lhs = rhs1 + rhs2 on x, each term a product of two minors."""
    lhs, rhs1, rhs2 = (minor(x, *a) * minor(x, *b) for a, b in groups)
    return lhs == rhs1 + rhs2


def plucker_terms(I, L, i, j, k, p, transposed=False):
    """The six (rows, cols) pairs of the three-term identity.

    Returns ((lhs1, lhs2), (m1, m2), (m3, m4)) with
    lhs1*lhs2 = m1*m2 + m3*m4.  The column version multiplies minors
    with row sets I+p and I and column sets built from L and {i,j,k};
    the row version swaps the roles of rows and columns.
    """
    I, L = tuple(sorted(I)), tuple(sorted(L))
    _require(i < j < k, f"need i < j < k, got {(i, j, k)}")
    _require(not set(L) & {i, j, k}, "L must avoid i, j, k")
    _require(p not in I, "p must lie outside I")
    _require(len(I) == len(L) + 1, "need |I| = |L| + 1")
    Ip = _sorted_union(I, (p,))
    pairs = (
        ((Ip, _sorted_union(L, (i, k))), (I, _sorted_union(L, (j,)))),
        ((Ip, _sorted_union(L, (i, j))), (I, _sorted_union(L, (k,)))),
        ((Ip, _sorted_union(L, (j, k))), (I, _sorted_union(L, (i,)))),
    )
    if transposed:
        pairs = tuple(tuple((cols, rows) for rows, cols in group)
                      for group in pairs)
    return pairs


def check_plucker(x, I, L, i, j, k, p, transposed=False):
    """Verify the three-term identity exactly on x."""
    return _products_add_up(x, plucker_terms(I, L, i, j, k, p, transposed))


def dodgson_terms(I, J, i, ip, j, jp):
    """The six (rows, cols) pairs of the Dodgson identity."""
    I, J = tuple(sorted(I)), tuple(sorted(J))
    _require(i < ip, f"need i < i', got {(i, ip)}")
    _require(j < jp, f"need j < j', got {(j, jp)}")
    _require(not set(I) & {i, ip}, "I must avoid i, i'")
    _require(not set(J) & {j, jp}, "J must avoid j, j'")
    _require(len(I) == len(J), "need |I| = |J|")
    return (
        ((_sorted_union(I, (i,)), _sorted_union(J, (j,))),
         (_sorted_union(I, (ip,)), _sorted_union(J, (jp,)))),
        ((_sorted_union(I, (i,)), _sorted_union(J, (jp,))),
         (_sorted_union(I, (ip,)), _sorted_union(J, (j,)))),
        ((I, J), (_sorted_union(I, (i, ip)), _sorted_union(J, (j, jp)))),
    )


def check_dodgson(x, I, J, i, ip, j, jp):
    """Verify the Dodgson condensation identity exactly on x."""
    return _products_add_up(x, dodgson_terms(I, J, i, ip, j, jp))


class ExchangeCertificate(NamedTuple):
    """lhs[0]*lhs[1] = rhs1[0]*rhs1[1] + rhs2[0]*rhs2[1], all chamber minors."""

    identity: str          # "plucker-cols", "plucker-rows" or "dodgson"
    exchanged: tuple       # the two minors swapped by the move
    lhs: tuple
    rhs1: tuple
    rhs2: tuple

    def holds_on(self, x):
        return _products_add_up(x, (self.lhs, self.rhs1, self.rhs2))


def _match_exchange(old, new):
    """The certificate whose identity has old and new on its left side,
    by the rule exchange_certificate states, or None."""
    if len(old[0]) == len(new[0]):
        (rows_a, cols_a), (rows_b, cols_b) = old, new
        ri = sorted(set(rows_a) ^ set(rows_b))
        rj = sorted(set(cols_a) ^ set(cols_b))
        # the exchanged pair must be the diagonal products (i with j)
        if (len(ri) != 2 or len(rj) != 2
                or (ri[0] in rows_a) != (rj[0] in cols_a)):
            return None
        I, J = set(rows_a) & set(rows_b), set(cols_a) & set(cols_b)
        return ExchangeCertificate("dodgson", (old, new),
                                   *dodgson_terms(I, J, *ri, *rj))
    (rows_s, cols_s), (rows_l, cols_l) = sorted(
        (old, new), key=lambda pair: len(pair[0]))
    transposed = not set(rows_s) <= set(rows_l)
    if transposed:
        rows_s, cols_s, rows_l, cols_l = cols_s, rows_s, cols_l, rows_l
    # want rows_l = I + {p}, rows_s = I, cols_l = L + {i, k}, cols_s = L + {j}
    extra = set(rows_l) - set(rows_s)
    mid = set(cols_s) - set(cols_l)
    ends = sorted(set(cols_l) - set(cols_s))
    if not (set(rows_s) <= set(rows_l) and len(extra) == len(mid) == 1
            and len(ends) == 2 and ends[0] < min(mid) < ends[1]):
        return None
    (p,), (j,), (i, k) = extra, mid, ends
    L = set(cols_l) & set(cols_s)
    return ExchangeCertificate(
        "plucker-rows" if transposed else "plucker-cols", (old, new),
        *plucker_terms(rows_s, L, i, j, k, p, transposed))


def exchange_certificate(scheme, move):
    """The identity instance behind a braid3 or mixed2 exchange.

    The exchanged pair's sizes pick the identity.  Minors of one size
    (a mixed2 move) must differ in one row and one column index on the
    diagonal of the Dodgson pattern.  Sizes one apart (every braid3 move
    changes the level of its triangle chamber) fit the three-term
    identity: the column version when the smaller row set lies inside
    the larger, else the row version.  The other four minors of the
    instance must be shared by both chamber families (or be the empty
    minor, a constant 1).
    """
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

    certificate = _match_exchange(old, new)
    if certificate is None:
        raise NotAnExchange(
            f"exchanged pair {old} / {new} fits no identity pattern")

    shared = set(before) & set(after)
    empty = ((), ())
    for pair in certificate.rhs1 + certificate.rhs2:
        if pair not in shared and pair != empty:
            raise NotAnExchange(
                f"companion minor {pair} is not shared by both families")
    return certificate


# ---------------------------------------------------------------------------
# randomized validation


def _random_matrix(n, rng):
    return Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(n)] for _ in range(n)])


def _random_subset(pool, size, rng):
    return tuple(sorted(rng.sample(pool, size)))


def _random_plucker_instance(n, rng):
    i, j, k = _random_subset(range(1, n + 1), 3, rng)
    rest = [a for a in range(1, n + 1) if a not in (i, j, k)]
    L = _random_subset(rest, rng.randint(0, min(len(rest), n - 3)), rng)
    size_I = len(L) + 1
    I = _random_subset(range(1, n + 1), size_I, rng)
    outside = [a for a in range(1, n + 1) if a not in I]
    p = rng.choice(outside)
    return I, L, i, j, k, p, rng.random() < 0.5


def _random_dodgson_instance(n, rng):
    i, ip = _random_subset(range(1, n + 1), 2, rng)
    j, jp = _random_subset(range(1, n + 1), 2, rng)
    size = rng.randint(0, n - 2)
    I = _random_subset([a for a in range(1, n + 1) if a not in (i, ip)],
                       size, rng)
    J = _random_subset([a for a in range(1, n + 1) if a not in (j, jp)],
                       size, rng)
    return I, J, i, ip, j, jp


# A trial costs about n**4 steps of a fraction operation: 0.16 ms at
# n = 3, 1.0 ms at n = 8 and 240 ms at n = 40 on a 2-vCPU host.  So
# trials * n**4 <= MAX_FUZZ_WORK keeps any run to a few minutes.
MAX_FUZZ_WORK = 10**8


def fuzz(n, trials, seed):
    """Random instantiations of both identity families on random matrices.

    Every trial draws its own generator from (seed, index), so the
    report does not depend on execution order.  Returns the report as a
    dict; an empty failure list means every identity held exactly.
    Raises TooMuchWork, before any trial runs, when trials * n**4
    exceeds MAX_FUZZ_WORK.
    """
    if n < 3:
        raise PreconditionViolated("need n >= 3 for three-term instances")
    if trials < 0:
        raise PreconditionViolated(f"trials must be >= 0, got {trials}")
    work = trials * n**4
    if work > MAX_FUZZ_WORK:
        raise TooMuchWork(
            f"fuzz work estimate trials * n**4 = {work:,} exceeds "
            f"{MAX_FUZZ_WORK:,}; lower n or trials")
    failures = []
    for idx in range(trials):
        rng = random.Random(seed * 1_000_003 + idx)
        x = _random_matrix(n, rng)
        I, L, i, j, k, p, transposed = _random_plucker_instance(n, rng)
        if not check_plucker(x, I, L, i, j, k, p, transposed):
            failures.append({"trial": idx, "identity": "plucker",
                             "instance": {"I": list(I), "L": list(L),
                                          "ijk": [i, j, k], "p": p,
                                          "transposed": transposed}})
        I2, J2, i2, ip2, j2, jp2 = _random_dodgson_instance(n, rng)
        if not check_dodgson(x, I2, J2, i2, ip2, j2, jp2):
            failures.append({"trial": idx, "identity": "dodgson",
                             "instance": {"I": list(I2), "J": list(J2),
                                          "ii": [i2, ip2], "jj": [j2, jp2]}})
    return {"n": n, "trials": trials, "seed": seed, "failures": failures}
