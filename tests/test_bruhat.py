import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from reference import (all_permutations, in_G0, leading_principal_minors,
                       reference_in_bruhat_cell)
from tpfact import bruhat, linalg
from tpfact.bruhat import bruhat_cell_of, double_cell_of, in_bruhat_cell
from tpfact.errors import Singular, SizeMismatch
from tpfact.linalg import Matrix, _first_zero_leading_minor, det
from tpfact.permutations import Permutation, signed_representative
from tpfact.product_map import product
from tpfact.schemes import H, seed_scheme


def mat(rows):
    return Matrix(tuple(tuple(Fraction(e) for e in row) for row in rows))


def test_identity_in_identity_cell():
    x = Matrix.identity(3)
    assert bruhat_cell_of(x) == Permutation.identity(3)
    assert double_cell_of(x) == (Permutation.identity(3),
                                 Permutation.identity(3))


def test_antidiagonal_is_longest_cell():
    x = mat([[0, 1], [1, 0]])
    assert bruhat_cell_of(x) == Permutation.from_string("21")


def test_upper_unitriangular():
    x = mat([[1, 5], [0, 1]])
    assert double_cell_of(x) == (Permutation.identity(2),
                                 Permutation.from_string("21"))
    y = mat([[1, 0], [5, 1]])
    assert double_cell_of(y) == (Permutation.from_string("21"),
                                 Permutation.identity(2))


def test_exactly_one_cell_per_matrix():
    rng = random.Random(12)
    for n in (2, 3, 4):
        done = 0
        while done < 5:
            x = Matrix(tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                   for _ in range(n)) for _ in range(n)))
            if det(x) == 0:
                continue
            hits = [w for w in all_permutations(n) if in_bruhat_cell(x, w)]
            assert len(hits) == 1
            assert hits[0] == bruhat_cell_of(x)
            done += 1


def test_double_cell_of_scheme_products():
    rng = random.Random(13)
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                    for _ in range(sch.length)]
            assert double_cell_of(product(sch, vals)) == (u, v)


def _signed_seed_products(cells, rng):
    """Seed-scheme products at positive parameters, one e/f negated."""
    for u, v in cells:
        sch = seed_scheme(u, v)
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                for _ in range(sch.length)]
        ef = [k for k, sym in enumerate(sch.word) if sym.kind != H]
        if ef:
            k = rng.choice(ef)
            vals[k] = -vals[k]
        yield product(sch, vals)


def _membership_inputs():
    rng = random.Random(21)
    for entries in itertools.product((0, 1), repeat=9):
        x = mat([entries[:3], entries[3:6], entries[6:]])
        if det(x) != 0:
            yield x
    done = 0
    while done < 200:
        x = mat([[rng.randint(-1, 1) for _ in range(4)] for _ in range(4)])
        if det(x) != 0:
            done += 1
            yield x
    s3 = list(all_permutations(3))
    yield from _signed_seed_products(itertools.product(s3, s3), rng)
    s4 = list(all_permutations(4))
    yield from _signed_seed_products(
        [(rng.choice(s4), rng.choice(s4)) for _ in range(72)], rng)


def test_in_bruhat_cell_matches_minor_by_minor_reference():
    # one elimination per candidate decides the nonvanishing family; the
    # inputs make a nested minor vanish at every order i < n
    vanished = set()
    count = {3: 0, 4: 0}
    for x in _membership_inputs():
        count[x.n] += 1
        for w in all_permutations(x.n):
            assert in_bruhat_cell(x, w) == reference_in_bruhat_cell(x, w), (x, w)
            for i in range(1, x.n):
                rows = tuple(sorted(w(a) for a in range(1, i + 1)))
                if linalg.minor(x, rows, tuple(range(1, i + 1))) == 0:
                    vanished.add((x.n, i))
    assert count == {3: 174 + 36, 4: 200 + 72}
    assert vanished == {(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}


def _gl4_seed_products():
    rng = random.Random(25)
    s4 = all_permutations(4)
    for u, v in [(rng.choice(s4), rng.choice(s4)) for _ in range(6)]:
        sch = seed_scheme(u, v)
        yield product(sch, [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                            for _ in range(sch.length)])


@pytest.mark.parametrize("x, calls", [
    *((Matrix.identity(n), 1) for n in (1, 2, 3, 4, 5)),
    *((signed_representative(Permutation.longest_element(n)), math.factorial(n))
      for n in (2, 3, 4, 5)),
    *((x, None) for x in _gl4_seed_products()),
])
def test_classification_tries_candidates_in_lexicographic_order(
        x, calls, monkeypatch):
    # the k-th permutation in lexicographic one-line order costs exactly
    # k membership tests: the identity 1, w0 n!
    tried = []

    def counting(y, w):
        tried.append(w)
        return in_bruhat_cell(y, w)

    monkeypatch.setattr(bruhat, "in_bruhat_cell", counting)
    w = bruhat_cell_of(x)
    assert in_bruhat_cell(x, w)
    candidates = all_permutations(x.n)
    assert tried == candidates[:candidates.index(w) + 1]
    assert calls is None or len(tried) == calls


def test_classifying_the_identity_builds_no_list_of_candidates():
    # the identity is the first candidate: nothing of size n! is allocated
    x = Matrix.identity(9)
    tracemalloc.start()
    try:
        assert double_cell_of(x) == (Permutation.identity(9),) * 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_in_G0():
    assert in_G0(mat([[2, 1], [1, 3]]))
    assert not in_G0(mat([[0, 1], [1, 0]]))
    assert not in_G0(mat([[1, 2], [2, 4]]))
    # elimination names the first vanishing leading principal minor,
    # so it reads 0 exactly on the matrices in G0
    rng = random.Random(61)
    orders = set()
    for _ in range(200):
        x = mat([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        lead = leading_principal_minors(x)
        order = next((k for k, m in enumerate(lead, 1) if m == 0), 0)
        assert _first_zero_leading_minor([list(row) for row in x.rows], 3) == order
        assert (order == 0) == in_G0(x)
        orders.add(order)
    assert orders == {0, 1, 2, 3}


def test_singular_matrix_rejected():
    with pytest.raises(Singular):
        bruhat_cell_of(mat([[1, 2], [2, 4]]))
    # every candidate refuses, also once the zero determinant is cached
    x = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for w in all_permutations(3):
        with pytest.raises(Singular):
            in_bruhat_cell(x, w)
    with pytest.raises(Singular):
        double_cell_of(mat([[1, 1], [1, 1]]))


@pytest.mark.parametrize("w", [(1, 2, 3, 4), (4, 3, 2, 1), (2, 1)])
def test_in_bruhat_cell_refuses_a_permutation_of_another_size(w):
    x = mat([[1, 1, 0], [1, 2, 1], [0, 1, 1]])
    with pytest.raises(SizeMismatch,
                       match=f"^matrix size 3 != permutation size {len(w)}$"):
        in_bruhat_cell(x, Permutation(w))


@pytest.mark.parametrize("n", [4, 5])
def test_double_cell_of_computes_each_determinant_once(n, monkeypatch):
    # a full-size minor is a determinant: one for x and one for its
    # transpose, not one per candidate permutation (48 at n = 4, 240 at 5)
    full = []
    original = linalg.minor

    def counting(x, rows, cols):
        if len(rows) == x.n:
            full.append(rows)
        return original(x, rows, cols)

    monkeypatch.setattr(linalg, "minor", counting)
    monkeypatch.setattr(bruhat, "minor", counting)
    w0 = Permutation.longest_element(n)
    sch = seed_scheme(w0, w0)
    rng = random.Random(n)
    x = product(sch, [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                      for _ in range(sch.length)])
    assert double_cell_of(x) == (w0, w0)
    assert len(full) <= 2
