import random
from fractions import Fraction

import pytest

from reference import (all_permutations, alternating_diagonal,
                       diagonal_matrix, leading_principal_minors,
                       reference_gaussian_factors, reference_inverse,
                       reference_twist, reference_twist_formula)
from tpfact.bruhat import double_cell_of
from tpfact.errors import (DecompositionFailure, PreconditionError,
                           SizeMismatch, WrongCell)
from tpfact.linalg import Matrix, det, minor
from tpfact.permutations import Permutation
from tpfact.positivity import is_tnn
from tpfact.product_map import product
from tpfact.schemes import parse_scheme, seed_scheme
from tpfact.twist import _twist_in_cell, twist


def mat(rows):
    return Matrix(tuple(tuple(Fraction(e) for e in row) for row in rows))


def rand_nonzero(rng):
    v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return v if v else Fraction(1)


def test_alternating_diagonal():
    d = alternating_diagonal(3)
    assert d.rows == ((1, 0, 0), (0, -1, 0), (0, 0, 1))


def test_reference_factors_and_inverse_from_minors():
    # entries in -1..1 so that some leading principal minors vanish
    rng = random.Random(2301)
    orders = set()
    for n in (2, 3, 4, 5):
        for _ in range(40):
            z = Matrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            lead = leading_principal_minors(z)
            order = next((k for k, m in enumerate(lead, 1) if m == 0), 0)
            orders.add(order)
            if order:
                with pytest.raises(DecompositionFailure) as info:
                    reference_gaussian_factors(z)
                assert str(info.value).endswith(f"order {order} vanishes")
                continue
            lower, d, upper = reference_gaussian_factors(z)
            assert lower * diagonal_matrix(d) * upper == z
            assert all(lower.entry(i, j) == (i == j) for i in range(1, n + 1)
                       for j in range(i, n + 1))
            assert all(upper.entry(j, i) == (i == j) for i in range(1, n + 1)
                       for j in range(i, n + 1))
            assert z * reference_inverse(z) == Matrix.identity(n)
    assert orders == {0, 1, 2, 3, 4, 5}


def test_sl2_identity_cell():
    e2 = Permutation.identity(2)
    for a in (Fraction(3), Fraction(-2, 5)):
        x = mat([[a, 0], [0, 1 / a]])
        assert twist(x, e2, e2) == mat([[1 / a, 0], [0, a]])


def test_sl2_upper_cell():
    e2 = Permutation.identity(2)
    w0 = Permutation.from_string("21")
    rng = random.Random(20)
    for _ in range(10):
        a, b = rand_nonzero(rng), rand_nonzero(rng)
        x = Matrix(((a, b), (Fraction(0), 1 / a)))
        y = twist(x, e2, w0)
        assert y == Matrix(((1 / b, 1 / a), (Fraction(0), b)))


def test_sl2_lower_cell():
    e2 = Permutation.identity(2)
    w0 = Permutation.from_string("21")
    rng = random.Random(21)
    for _ in range(10):
        a, c = rand_nonzero(rng), rand_nonzero(rng)
        x = Matrix(((a, Fraction(0)), (c, 1 / a)))
        y = twist(x, w0, e2)
        assert y == Matrix(((1 / c, Fraction(0)), (1 / a, c)))


def test_sl2_open_cell():
    w0 = Permutation.from_string("21")
    rng = random.Random(22)
    for _ in range(10):
        b, c, d = rand_nonzero(rng), rand_nonzero(rng), rand_nonzero(rng)
        a = (1 + b * c) / d
        x = Matrix(((a, b), (c, d)))
        y = twist(x, w0, w0)
        assert y == Matrix(((a / (b * c), 1 / c), (1 / b, d)))


def test_sl2_open_cell_zero_corner():
    w0 = Permutation.from_string("21")
    x = mat([[0, 1], [-1, 7]])
    assert twist(x, w0, w0) == mat([[0, -1], [1, 7]])


def test_gl2_closed_form():
    w0 = Permutation.from_string("21")
    sch = parse_scheme("h1 f1 h2 e1")
    rng = random.Random(23)
    for _ in range(10):
        vals = [rand_nonzero(rng) for _ in range(4)]
        x = product(sch, vals)
        y = twist(x, w0, w0)
        e = x.entry
        assert y == Matrix(((e(1, 1) / (e(1, 2) * e(2, 1)), 1 / e(2, 1)),
                            (1 / e(1, 2), e(2, 2) / det(x))))


def test_gl3_closed_form():
    w0 = Permutation.longest_element(3)
    sch = seed_scheme(w0, w0)
    rng = random.Random(24)
    for _ in range(10):
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                for _ in range(sch.length)]
        x = product(sch, vals)
        y = twist(x, w0, w0)
        e = x.entry
        d = det(x)
        expect = Matrix((
            (e(1, 1) / (e(3, 1) * e(1, 3)),
             minor(x, (1, 2), (1, 3)) / (e(3, 1) * minor(x, (1, 2), (2, 3))),
             1 / e(3, 1)),
            (minor(x, (1, 3), (1, 2)) / (e(1, 3) * minor(x, (2, 3), (1, 2))),
             (e(3, 3) * minor(x, (1, 2), (1, 2)) - d)
             / (minor(x, (2, 3), (1, 2)) * minor(x, (1, 2), (2, 3))),
             e(3, 2) / minor(x, (2, 3), (1, 2))),
            (1 / e(1, 3),
             e(2, 3) / minor(x, (1, 2), (2, 3)),
             minor(x, (2, 3), (2, 3)) / d),
        ))
        assert y == expect


def test_twist_lands_in_inverse_cell_and_inverts():
    rng = random.Random(25)
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            vals = [rand_nonzero(rng) for _ in range(sch.length)]
            x = product(sch, vals)
            if double_cell_of(x) != (u, v):
                continue
            y = twist(x, u, v)
            assert double_cell_of(y) == (u.inverse(), v.inverse())
            assert twist(y, u.inverse(), v.inverse()) == x


def test_twist_preserves_nonnegativity():
    rng = random.Random(26)
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                    for _ in range(sch.length)]
            x = product(sch, vals)
            assert is_tnn(x)
            assert is_tnn(twist(x, u, v))


def twist_outcome(fn, x, u, v):
    try:
        return fn(x, u, v)
    except PreconditionError as exc:
        return type(exc), str(exc)


def assert_twist_matches_reference(u, v, rng, points):
    # one positive point, then signed ones (which may leave the cell or
    # lose the Gaussian decomposition: both sides must fail alike)
    sch = seed_scheme(u, v)
    twisted = 0
    for k in range(points):
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) if k == 0
                else rand_nonzero(rng) for _ in range(sch.length)]
        x = product(sch, vals)
        got = twist_outcome(twist, x, u, v)
        assert got == twist_outcome(reference_twist, x, u, v)
        twisted += isinstance(got, Matrix)
    assert twisted >= 1


def test_twist_matches_dense_reference_every_gl3_cell():
    rng = random.Random(1701)
    for u in all_permutations(3):
        for v in all_permutations(3):
            assert_twist_matches_reference(u, v, rng, 4)


def test_twist_matches_dense_reference_on_gl4_sample():
    rng = random.Random(1702)
    cells = [(u, v) for u in all_permutations(4) for v in all_permutations(4)]
    for u, v in rng.sample(cells, 24):
        assert_twist_matches_reference(u, v, rng, 3)


def test_twist_wrong_cell():
    w0 = Permutation.from_string("21")
    with pytest.raises(WrongCell):
        twist(Matrix.identity(2), w0, w0)


def test_twist_wrong_size():
    # permutations of another size are malformed input, not a wrong cell
    x = mat([[5, 2], [2, 1]])
    u, v = Permutation.from_string("21"), Permutation.from_string("321")
    with pytest.raises(SizeMismatch):
        twist(x, u, v)
    with pytest.raises(SizeMismatch):
        twist(x, v, v)


def test_twist_formula_matches_dense_reference_at_n6_to_8():
    # Classification is the n! search, so these sizes call the formula
    # directly: equal to the dense one wherever both LDUs exist, in or out
    # of the cell, and failing with the same message where one does not.
    rng = random.Random(2201)
    twisted = 0
    for n in (6, 7, 8):
        for _ in range(3):
            u, v = (Permutation(rng.sample(range(1, n + 1), n)) for _ in "uv")
            sch = seed_scheme(u, v)
            for k in range(3):
                vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) if k == 0
                        else rand_nonzero(rng) for _ in range(sch.length)]
                x = product(sch, vals)
                got = twist_outcome(_twist_in_cell, x, u, v)
                assert got == twist_outcome(reference_twist_formula, x, u, v)
                twisted += isinstance(got, Matrix)
    assert twisted >= 9  # at least every positive point


def test_twist_round_trip_on_open_cell_n10():
    # a positive seed-scheme product lies in its scheme's cell (the
    # paper's theorem), so the n! classification of twist is skipped
    w0 = Permutation.longest_element(10)
    sch = seed_scheme(w0, w0)
    rng = random.Random(2202)
    x = product(sch, [Fraction(rng.randint(1, 15), rng.randint(1, 15))
                      for _ in range(sch.length)])
    y = _twist_in_cell(x, w0, w0)
    assert is_tnn(y)
    assert _twist_in_cell(y, w0.inverse(), w0.inverse()) == x


@pytest.mark.parametrize("rows, u, v, order", [
    ([[1, 0], [0, 1]], "21", "21", 1),             # x^T ubar fails
    ([[1, 0], [1, 1]], "12", "21", 1),             # vibar^T x^T fails
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], "123", "123", 2),
    # both fail, at different orders: the left factor's order is named
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], "123", "321", 1),  # right fails at 2
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "321", "123", 2),  # right fails at 1
])
def test_twist_in_cell_wrong_cell_names_vanishing_minor(rows, u, v, order):
    x = mat(rows)
    u, v = Permutation.from_string(u), Permutation.from_string(v)
    with pytest.raises(DecompositionFailure) as info:
        _twist_in_cell(x, u, v)
    assert str(info.value) == ("no Gaussian decomposition: leading principal "
                               f"minor of order {order} vanishes")
    assert twist_outcome(reference_twist_formula, x, u, v) == (
        DecompositionFailure, str(info.value))
