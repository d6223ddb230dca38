import itertools
import random
from fractions import Fraction

import pytest

from tpfact.errors import NotInG0, SizeMismatch, Singular, ValidationError
from tpfact.linalg import (
    Matrix,
    det,
    inverse,
    ldu_decompose,
    leading_principal_minors,
    matrix_from_json,
    matrix_from_json_text,
    matrix_to_json,
    minor,
    scalar_from_str,
    scalar_to_str,
)


def rand_matrix(n, rng):
    return Matrix(tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(n)) for _ in range(n)))


def det_by_expansion(x, rows, cols):
    # reference oracle: sum over permutations with explicit signs
    k = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(sign)
        for a in range(k):
            term *= x.entry(rows[a], cols[perm[a]])
        total += term
    return total


def test_identity_and_diagonal():
    assert Matrix.identity(3).rows == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    d = Matrix.diagonal([Fraction(2), Fraction(3)])
    assert d.entry(1, 1) == 2 and d.entry(2, 2) == 3 and d.entry(1, 2) == 0


def test_multiply_matches_by_hand():
    a = Matrix(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))))
    b = Matrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert a * b == Matrix(((Fraction(2), Fraction(1)),
                            (Fraction(4), Fraction(3))))


def test_multiply_size_mismatch():
    a = Matrix.identity(2)
    b = Matrix.identity(3)
    with pytest.raises(SizeMismatch):
        a * b


def test_minor_against_permutation_expansion():
    rng = random.Random(0)
    for n in (2, 3, 4):
        for _ in range(10):
            x = rand_matrix(n, rng)
            for k in range(1, n + 1):
                rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
                cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
                assert minor(x, rows, cols) == det_by_expansion(x, rows, cols)


def test_minor_empty_sets_is_one():
    x = rand_matrix(3, random.Random(1))
    assert minor(x, (), ()) == 1


def test_minor_validates_index_sets():
    x = Matrix.identity(3)
    with pytest.raises(ValidationError):
        minor(x, (2, 1), (1, 2))
    with pytest.raises(ValidationError):
        minor(x, (1,), (4,))
    with pytest.raises(ValidationError):
        minor(x, (1, 2), (1,))


def test_det_matches_full_minor():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            x = rand_matrix(n, rng)
            full = tuple(range(1, n + 1))
            fresh = Matrix(x.rows)
            text, key = repr(x), hash(x)
            value = det(x)
            # a second call returns the cached value; caching leaves the
            # matrix's equality, hash and repr as they were
            assert det(x) == value == minor(x, full, full)
            assert x == fresh and hash(x) == key == hash(fresh)
            assert repr(x) == text == repr(fresh)


def test_leading_principal_minors():
    x = Matrix(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3))))
    assert leading_principal_minors(x) == [Fraction(2), Fraction(5)]


def test_ldu_reconstructs_and_shapes():
    rng = random.Random(3)
    done = 0
    while done < 10:
        x = rand_matrix(3, rng)
        if any(m == 0 for m in leading_principal_minors(x)):
            continue
        l, d, u = ldu_decompose(x)
        assert l * d * u == x
        for i in range(1, 4):
            assert l.entry(i, i) == 1 and u.entry(i, i) == 1
            for j in range(i + 1, 4):
                assert l.entry(i, j) == 0
                assert u.entry(j, i) == 0
        done += 1


def test_ldu_requires_nonzero_leading_minors():
    x = Matrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    with pytest.raises(NotInG0):
        ldu_decompose(x)


def test_inverse_round_trip_and_singular():
    rng = random.Random(4)
    done = 0
    while done < 10:
        x = rand_matrix(3, rng)
        if det(x) == 0:
            continue
        assert x * inverse(x) == Matrix.identity(3)
        done += 1
    singular = Matrix(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))
    with pytest.raises(Singular):
        inverse(singular)


def test_scalar_strings():
    assert scalar_to_str(Fraction(-3, 7)) == "-3/7"
    assert scalar_to_str(Fraction(4)) == "4"
    assert scalar_from_str("22/7") == Fraction(22, 7)
    assert scalar_from_str("-5") == Fraction(-5)
    with pytest.raises(ValidationError):
        scalar_from_str("1.5x")


def test_json_round_trip():
    x = Matrix(((Fraction(1, 2), Fraction(0)), (Fraction(-3), Fraction(7))))
    blob = matrix_to_json(x)
    assert blob == {"n": 2, "entries": [["1/2", "0"], ["-3", "7"]]}
    assert matrix_from_json(blob) == x
    assert matrix_from_json_text('{"n": 2, "entries": [["1/2","0"],["-3","7"]]}') == x


def test_json_rejects_bad_shapes():
    with pytest.raises(SizeMismatch):
        matrix_from_json({"n": 2, "entries": [["1", "2"]]})
    with pytest.raises(SizeMismatch):
        matrix_from_json({"n": 3, "entries": [["1"]]})
    with pytest.raises(SizeMismatch):
        matrix_from_json({"entries": []})
    with pytest.raises(ValidationError):
        matrix_from_json_text("[1, 2]")
    # faults of type, not of size
    with pytest.raises(ValidationError, match="must be a list of rows") as info:
        matrix_from_json({"entries": 5})
    assert type(info.value) is ValidationError
    with pytest.raises(ValidationError, match="'2' is not an integer") as info:
        matrix_from_json({"n": "2", "entries": [["5", "2"], ["2", "1"]]})
    assert type(info.value) is ValidationError
    with pytest.raises(ValidationError, match="True is not an integer"):
        matrix_from_json({"n": True, "entries": [["1"]]})
    # size field is optional when it agrees with the entries
    assert matrix_from_json({"entries": [["5"]]}).entry(1, 1) == 5


@pytest.mark.parametrize("parse, arg, message", [
    (scalar_from_str, "abc", "bad rational literal 'abc'"),
    (matrix_from_json_text, "[1,2", "bad matrix JSON"),
    (matrix_from_json, [], "must be an object with an 'entries' field"),
    (matrix_from_json, {}, "must be an object with an 'entries' field"),
], ids=["scalar", "json-text", "json-list", "json-empty-object"])
def test_parse_errors_are_not_size_mismatches(parse, arg, message):
    with pytest.raises(ValidationError, match=message) as info:
        parse(arg)
    assert type(info.value) is ValidationError

