import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from reference import (diagonal_matrix, leading_principal_minors,
                       reference_check_index_pair, reference_minor)
from tpfact import linalg
from tpfact.errors import IndexOutOfRange, SizeMismatch, ValidationError
from tpfact.linalg import (
    Matrix,
    check_index_pair,
    det,
    matrix_from_json,
    matrix_from_json_text,
    matrix_to_json,
    minor,
    parse_json,
    scalar_from_str,
    scalar_to_str,
)
from tpfact.permutations import Permutation
from tpfact.positivity import chamber_set_criterion, first_negative_minor
from tpfact.product_map import product
from tpfact.schemes import seed_scheme
from tpfact.solver import solve


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
    d = diagonal_matrix([Fraction(2), Fraction(3)])
    assert d.entry(1, 1) == 2 and d.entry(2, 2) == 3 and d.entry(1, 2) == 0


@pytest.mark.parametrize("bad", [0.1, 1.0, True, False, "1_0", "1/2", None,
                                 complex(1, 0), [1]])
def test_matrix_takes_only_exact_scalars(bad):
    with pytest.raises(ValidationError, match=r"entry \(2, 1\)"):
        Matrix([[1, 0], [bad, 1]])
    with pytest.raises(ValidationError, match=r"entry \(2, 2\)"):
        diagonal_matrix([1, bad])


def test_matrix_keeps_fractions_and_converts_ints():
    half = Fraction(1, 2)
    x = Matrix([[half, 3], [-2, Fraction(4)]])
    assert x.rows[0][0] is half
    assert all(type(e) is Fraction for row in x.rows for e in row)
    assert x.rows == ((half, 3), (-2, 4))
    assert diagonal_matrix([2, half]).rows == ((2, 0), (0, half))


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


def sparse_matrix(n, rng):
    # entries in {-1, 0, 1}: zero pivots and row swaps are common
    return Matrix([[rng.choice((-1, 0, 0, 1)) for _ in range(n)]
                   for _ in range(n)])


def test_minor_against_permutation_expansion():
    rng = random.Random(0)
    for n in (2, 3, 4):
        for _ in range(10):
            x = rand_matrix(n, rng)
            for k in range(1, n + 1):
                rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
                cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
                assert minor(x, rows, cols) == det_by_expansion(x, rows, cols)


def test_sparse_minors_against_bareiss_and_expansion():
    rng = random.Random(5)
    for n in range(2, 7):
        for _ in range(12):
            x = sparse_matrix(n, rng)
            for k in range(1, n + 1):
                for rows in itertools.combinations(range(1, n + 1), k):
                    for cols in itertools.combinations(range(1, n + 1), k):
                        value = minor(x, rows, cols)
                        assert value == reference_minor(x, rows, cols)
                        if n <= 4:
                            assert value == det_by_expansion(x, rows, cols)


# entries of three sizes: small integers, small fractions and 32-bit
# numerators over 32-bit denominators
ENTRIES = {
    "integer": lambda rng: Fraction(rng.randint(1, 9)),
    "fraction": lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
    "32-bit": lambda rng: Fraction(rng.getrandbits(32) | 1,
                                   rng.getrandbits(32) | 1),
}


def signed_sparse_matrix(n, rng, entry):
    # half the entries zero, the rest of either sign
    return Matrix([[rng.choice((-1, 0, 0, 1)) * entry(rng) for _ in range(n)]
                   for _ in range(n)])


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@pytest.mark.parametrize("n", range(1, 7))
def test_minor_matches_bareiss_at_every_order(n, kind):
    rng = random.Random(f"{n} {kind}")
    gaps = 0
    for _ in range(6):
        x = signed_sparse_matrix(n, rng, ENTRIES[kind])
        for k in range(n + 1):
            for _ in range(6):
                rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
                cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
                gaps += k > 0 and rows[-1] - rows[0] >= k
                assert minor(x, rows, cols) == reference_minor(x, rows, cols)
    assert gaps > 0 or n <= 2


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_order_two_minors_on_every_zero_pattern(kind):
    # the 2x2 block (a, b; c, d) sits in rows 2, 4 and columns 1, 3
    rng = random.Random(kind)
    for pattern in range(16):
        for _ in range(4):
            a, b, c, d = (ENTRIES[kind](rng) * rng.choice((-1, 1))
                          if pattern >> bit & 1 else Fraction(0)
                          for bit in range(4))
            rows = [[ENTRIES[kind](rng) for _ in range(4)] for _ in range(4)]
            rows[1][0], rows[1][2], rows[3][0], rows[3][2] = a, b, c, d
            x = Matrix(rows)
            value = minor(x, (2, 4), (1, 3))
            assert value == a * d - b * c == reference_minor(x, (2, 4), (1, 3))
            assert type(value) is Fraction


def test_orders_below_three_do_not_eliminate(monkeypatch):
    def no_elimination(m, k):
        raise AssertionError(f"order {k} reached _eliminate")

    monkeypatch.setattr(linalg, "_eliminate", no_elimination)
    rng = random.Random(9)
    for kind in sorted(ENTRIES):
        x = signed_sparse_matrix(4, rng, ENTRIES[kind])
        for k in range(3):
            for rows in itertools.combinations(range(1, 5), k):
                for cols in itertools.combinations(range(1, 5), k):
                    assert minor(x, rows, cols) == reference_minor(x, rows, cols)
    with pytest.raises(AssertionError, match="order 3 reached _eliminate"):
        minor(x, (1, 2, 3), (2, 3, 4))


def malformed_index_sets(n, rng):
    """Seeded (rows, cols) pairs, each set a tuple, a list or a generator
    factory, with out-of-range, non-int, repeated or decreasing indices,
    sometimes two faults in one set, and sizes that differ."""
    pool = [0, n + 1, -1, 99, True, False, 1.0, "1", None] + list(range(1, n + 1))

    def index_set():
        size = rng.randint(0, n + 1)
        if rng.random() < 0.4:
            values = sorted(rng.sample(range(1, n + 1), min(size, n)))
        else:
            values = [rng.choice(pool) for _ in range(size)]
        if rng.random() < 0.3 and values:
            values.insert(rng.randrange(len(values) + 1), rng.choice(values))
        if rng.random() < 0.2:
            values.reverse()
        container = rng.choice((tuple, list, "generator"))
        if container == "generator":
            return lambda: (a for a in values)
        return lambda: container(values)

    fixed = [((3, 1, 99), (1,)), ((1, 1, 0), (1, 2, 3)), ((1, 2), (2, 1)),
             ((2, 1), (5, 1)), ((1,), (1, 2)), ((True,), (1,)),
             ((1, n + 1), (0,)), ((), ()), ((1, 3), [4, 2])]
    for rows, cols in fixed:
        yield (lambda: rows), (lambda: cols)
    for _ in range(400):
        yield index_set(), index_set()


def outcome(check, rows, cols, n):
    try:
        return check(rows, cols, n)
    except ValidationError as exc:
        return type(exc), str(exc)


def test_check_index_pair_matches_the_two_pass_check():
    rng = random.Random(28)
    seen = Counter()
    for n in (3, 4, 6):
        for rows, cols in malformed_index_sets(n, rng):
            got = outcome(check_index_pair, rows(), cols(), n)
            assert got == outcome(reference_check_index_pair, rows(), cols(), n)
            fault, message = got if type(got[0]) is type else (None, "")
            seen[fault, message.endswith("increasing")] += 1
    # valid pairs, sizes that differ, indices out of range and out of order
    assert min(seen[key] for key in ((None, False), (SizeMismatch, False),
                                     (IndexOutOfRange, False),
                                     (IndexOutOfRange, True))) >= 20, seen
    # an index out of range wins over an earlier fault of order
    assert outcome(check_index_pair, (3, 1, 99), (1,), 4) == (
        IndexOutOfRange, "index 99 outside [1, 4]")
    assert outcome(check_index_pair, [2, 1], (1, 2), 4) == (
        IndexOutOfRange, "index set (2, 1) is not strictly increasing")


# every module that evaluates minors, with the one kernel bound as `minor`
MINOR_CALLERS = ("bruhat", "identities", "linalg", "positivity", "solver")


@pytest.fixture
def minor_calls(monkeypatch):
    """The order of every minor evaluated, through any caller's binding."""
    orders = []
    original = linalg.minor

    def counting(x, rows, cols):
        orders.append(len(rows))
        return original(x, rows, cols)

    for name in MINOR_CALLERS:
        module = importlib.import_module(f"tpfact.{name}")
        assert module.minor is original, name
        monkeypatch.setattr(module, "minor", counting)
    return orders


def open_cell_product(n, seed):
    w0 = Permutation.longest_element(n)
    scheme = seed_scheme(w0, w0)
    rng = random.Random(seed)
    values = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
              for _ in range(scheme.length)]
    return scheme, values, product(scheme, values)


def test_callers_evaluate_minors_through_the_one_kernel(minor_calls):
    # the ordered scan on a TNN input: every minor of orders 1..4
    scheme, values, x = open_cell_product(4, 4)
    assert first_negative_minor(x) is None
    assert len(minor_calls) == comb(8, 4) - 1 == 69
    assert Counter(minor_calls) == {1: 16, 2: 36, 3: 16, 4: 1}
    minor_calls.clear()
    w0 = Permutation.longest_element(4)
    assert chamber_set_criterion(w0, w0, x).verdict
    assert len(minor_calls) == 69
    # classification (two determinants, the rest Bruhat conditions), then
    # one chamber minor per parameter
    scheme, values, x = open_cell_product(5, 5)
    minor_calls.clear()
    assert solve(scheme, x) == values
    assert len(minor_calls) == 265


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
    with pytest.raises(IndexOutOfRange):
        minor(x, ("a",), (1,))
    with pytest.raises(IndexOutOfRange):
        minor(x, (1,), (0,))


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


def test_scalar_strings():
    assert scalar_to_str(Fraction(-3, 7)) == "-3/7"
    assert scalar_to_str(Fraction(4)) == "4"
    assert scalar_from_str("22/7") == Fraction(22, 7)
    assert scalar_from_str("-5") == Fraction(-5)
    with pytest.raises(ValidationError):
        scalar_from_str("1.5x")
    # ASCII only: Fraction alone would read each of these as 1 or -1/2
    for text in ("\u0661", "\uff11", "-1/\u0662", "\u00a01"):
        with pytest.raises(ValidationError, match="is not ASCII"):
            scalar_from_str(text)
    # no digit groups: Fraction alone would read these as 10, 1 and 1/2
    for text in ("1_0", "0_1", "1/0_2"):
        with pytest.raises(ValidationError, match="has an underscore"):
            scalar_from_str(text)


@pytest.mark.parametrize("text", ["1e100000000", "2E3", "-1.5e-2", "1/1e9"])
def test_scalar_rejects_exponents(text):
    # Fraction would accept these and build 10**exponent before returning
    with pytest.raises(ValidationError, match=f"literal {text!r} has an exp"):
        scalar_from_str(text)


def test_literals_are_bounded_and_results_are_not():
    assert scalar_from_str("9" * 4300) == 10 ** 4300 - 1
    assert scalar_from_str("-" + "1" * 4000 + "/" + "3" * 4000).denominator > 1
    for text in ["9" * 4301, "1/" + "3" * 4301, " -1." + "5" * 4300]:
        with pytest.raises(ValidationError, match="has more than 4300 digits"):
            scalar_from_str(text)
    assert parse_json('{"n": -%s}' % ("1" * 4300), "JSON")["n"] < 0
    with pytest.raises(ValidationError, match="JSON integer '1111"):
        parse_json('{"n": %s}' % ("1" * 4301), "JSON")
    # a 6,001-digit numerator, printed in full
    assert scalar_to_str(Fraction(-10 ** 6000 - 1, 3)) == "-1" + "0" * 5999 + "1/3"


@pytest.mark.parametrize("i, j", [("a", 1), (1, 1.0), (None, 2), (True, 2),
                                  (1, False)])
def test_entry_rejects_non_integer_index(i, j):
    # a bool used to pass as 1 or 0: entry(True, 2) and the minor
    # ((True,), (2,)) of [[1, 2], [3, 4]] both returned 2
    x = Matrix([[1, 2], [3, 4]])
    with pytest.raises(IndexOutOfRange, match=r"entry \("):
        x.entry(i, j)
    with pytest.raises(IndexOutOfRange, match=r"index .* outside \[1, 2\]"):
        minor(x, (i,), (j,))


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

