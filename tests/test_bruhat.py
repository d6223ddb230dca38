import random
from fractions import Fraction

import pytest

from reference import in_G0
from tpfact import bruhat, linalg
from tpfact.bruhat import bruhat_cell_of, double_cell_of, in_bruhat_cell
from tpfact.errors import NotInG0, Singular
from tpfact.linalg import Matrix, det, ldu_decompose
from tpfact.permutations import Permutation, all_permutations
from tpfact.product_map import product
from tpfact.schemes import seed_scheme


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


def test_in_G0():
    assert in_G0(mat([[2, 1], [1, 3]]))
    assert not in_G0(mat([[0, 1], [1, 0]]))
    assert not in_G0(mat([[1, 2], [2, 4]]))
    # ldu_decompose finds its factors exactly on the matrices in G0
    rng = random.Random(61)
    for _ in range(200):
        x = mat([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        try:
            ldu_decompose(x)
        except NotInG0:
            assert not in_G0(x)
        else:
            assert in_G0(x)


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
