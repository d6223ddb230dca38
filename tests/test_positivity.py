import itertools
import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

from reference import (all_permutations, cauchon_diagrams,
                       elementary_product, reference_fekete_families,
                       reference_first_negative_minor, reference_is_tnn,
                       reference_is_tp, reference_w_chamber_sets, restore)
from tpfact import positivity
from tpfact.bruhat import double_cell_of
from tpfact.errors import SizeMismatch, TooMuchWork, ValidationError
from tpfact.linalg import Matrix, det, minor
from tpfact.permutations import Permutation
from tpfact.positivity import (
    GL3_COMMON_MINORS,
    MAX_CHAMBER_SET_MINORS,
    _cauchon_matrix,
    _minimal_negative_minor,
    chamber_criterion,
    chamber_set_criterion,
    fekete_criterion,
    fekete_families,
    fekete_scheme,
    first_negative_minor,
    gl3_criteria_catalog,
    is_tnn,
    is_tp,
    w_chamber_sets,
)
from tpfact.product_map import product
from tpfact.schemes import chamber_minor_family, parse_scheme, seed_scheme


def mat(rows):
    return Matrix(tuple(tuple(Fraction(e) for e in row) for row in rows))


def never(value):
    """A sign test that no entry fails: _cauchon_matrix runs the full pass."""
    return False


def rand_matrix(n, rng):
    return Matrix(tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(n)) for _ in range(n)))


def tp_sample(n, rng):
    w0 = Permutation.longest_element(n)
    sch = seed_scheme(w0, w0)
    vals = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(sch.length)]
    return product(sch, vals)


def is_tp_samples(n, rng):
    """TP, non-TP, singular and perturbed-TP matrices of size n."""
    samples = [Matrix.identity(n), mat([[1] * n] * n),
               mat([[i * j for j in range(1, n + 1)] for i in range(1, n + 1)])]
    if n == 1:
        return samples + [mat([[3]]), mat([[0]]), mat([[-1]])]
    for _ in range(4):
        x = tp_sample(n, rng)
        samples += [x, rand_matrix(n, rng)]
        # lower one entry: some minors through it shrink past zero
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in x.rows]
        shrink = rng.choice([Fraction(1, 100), Fraction(1, 4), 1])
        rows[i][j] -= shrink * rows[i][j]
        samples.append(Matrix(rows))
        # make the determinant vanish and keep every smaller initial minor
        full, head = tuple(range(1, n + 1)), tuple(range(1, n))
        rows = [list(row) for row in x.rows]
        rows[-1][-1] -= minor(x, full, full) / minor(x, head, head)
        samples.append(Matrix(rows))
    return samples


def test_is_tnn_and_is_tp_basics():
    assert is_tnn(Matrix.identity(3))
    assert not is_tp(Matrix.identity(3))
    assert is_tnn(mat([[1, 1], [1, 1]]))
    assert not is_tnn(mat([[1, 2], [3, 4]]))
    assert is_tp(mat([[2, 1], [1, 2]]))


def test_first_negative_minor_witness():
    x = mat([[1, 2], [3, 4]])
    witness = first_negative_minor(x)
    assert witness is not None
    rows, cols, value = witness
    assert value < 0
    assert rows == (1, 2) and cols == (1, 2)
    assert first_negative_minor(Matrix.identity(2)) is None


def all_small_matrices(n, values):
    for entries in itertools.product(values, repeat=n * n):
        yield Matrix([entries[i * n:(i + 1) * n] for i in range(n)])


def tnn_products(n, count, rng):
    """Products of elementary matrices at nonnegative parameters; about a
    third of them, column scalings h included, are 0, so most products
    are singular."""
    perms = all_permutations(n)
    for _ in range(count):
        scheme = seed_scheme(rng.choice(perms), rng.choice(perms))
        yield elementary_product(scheme, [
            0 if rng.random() < 0.3 else Fraction(rng.randint(1, 9),
                                                  rng.randint(1, 5))
            for _ in scheme.word])


def perturbed(x, rng):
    """x with one entry moved by a signed step."""
    rows = [list(row) for row in x.rows]
    i, j = rng.randrange(x.n), rng.randrange(x.n)
    rows[i][j] += rng.choice([-1, 1]) * rng.choice(
        [Fraction(1, 100), Fraction(1, 4), Fraction(1), Fraction(3)])
    return Matrix(rows)


def negated_on_the_border(x, rng):
    """x with one entry of its first row or first column made negative;
    the Cauchon pass never takes a pivot there."""
    rows = [list(row) for row in x.rows]
    k = rng.randrange(x.n)
    i, j = rng.choice([(0, k), (k, 0)])
    rows[i][j] = -rng.choice(
        [Fraction(1, 100), Fraction(1, 4), Fraction(1), Fraction(3)])
    return Matrix(rows)


def test_is_tnn_and_is_tp_match_the_definitions():
    rng = random.Random(44)
    samples = list(all_small_matrices(2, (0, 1, 2)))
    samples += all_small_matrices(2, (-1, 0, 1))
    samples += all_small_matrices(3, (0, 1))
    for n in (3, 4, 5):
        for x in tnn_products(n, 100, rng):
            samples += [x, perturbed(x, rng), negated_on_the_border(x, rng)]
    singular_tnn = 0
    for x in samples:
        truth = reference_is_tnn(x)
        assert is_tnn(x) == truth, x
        assert is_tp(x) == reference_is_tp(x), x
        singular_tnn += truth and det(x) == 0
    assert singular_tnn >= 450
    assert {is_tp(x) for x in samples} == {is_tnn(x) for x in samples} == {
        True, False}


@pytest.mark.parametrize("n, count", [(2, 14), (3, 230), (4, 6902)])
def test_sign_test_on_every_cauchon_diagram(n, count):
    """Inputs that do not come from product: positive rationals on the
    white squares of each Cauchon diagram, restored, give a TNN matrix
    with that Cauchon matrix, TP exactly when no square is black; with
    one white entry negated, anywhere (the first row and column
    included), they give neither."""
    rng = random.Random(270 + n)
    diagrams = cauchon_diagrams(n)
    assert len(diagrams) == count
    for black in diagrams:
        c = [[Fraction(0) if (i, j) in black
              else Fraction(rng.randint(1, 9), rng.randint(1, 5))
              for j in range(n)] for i in range(n)]
        x = restore(c)
        assert _cauchon_matrix(x, never) == c, black
        assert is_tnn(x), black
        assert is_tp(x) == (not black), black
        white = [(i, j) for i in range(n) for j in range(n)
                 if (i, j) not in black]
        if not white:
            continue
        i, j = rng.choice(white)
        c[i][j] = -c[i][j]
        y = restore(c)
        assert not is_tnn(y) and not is_tp(y), (black, i, j)
        if n < 4 or rng.random() < 0.1:
            assert reference_is_tnn(x) and not reference_is_tnn(y), black


def non_tnn_samples(n, rng):
    """Perturbed nonnegative products, most of them singular, and random
    matrices, each kept only when it is not TNN."""
    samples = []
    for x in tnn_products(n, 60, rng):
        samples += [perturbed(x, rng), rand_matrix(n, rng)]
    return [x for x in samples if not reference_is_tnn(x)]


def proper_minors_are_nonnegative(x, rows, cols):
    """Every minor of the submatrix on rows x cols but its determinant
    is >= 0: each one lies in a submatrix with one row and one column
    less."""
    return all(reference_is_tnn(Matrix([[x.rows[i - 1][j - 1] for j in c]
                                        for i in r]))
               for r in itertools.combinations(rows, len(rows) - 1)
               for c in itertools.combinations(cols, len(cols) - 1) if r)


def test_greedy_witness_is_a_minimal_negative_minor():
    rng = random.Random(46)
    singular = 0
    for n in (1, 2, 3, 4, 5):
        for x in non_tnn_samples(n, rng):
            rows, cols, value = _minimal_negative_minor(x)
            assert len(rows) == len(cols), x
            assert value < 0 and value == minor(x, rows, cols), x
            assert proper_minors_are_nonnegative(x, rows, cols), x
            singular += det(x) == 0
        assert _minimal_negative_minor(tp_sample(n, rng)) is None
    assert singular >= 20
    assert _minimal_negative_minor(Matrix.identity(4)) is None


@pytest.mark.parametrize("n", range(1, 9))
def test_first_negative_minor_is_the_first_by_order(n):
    rng = random.Random(47 + n)
    count = 30 if n <= 5 else 3 if n <= 7 else 1
    samples = [perturbed(tp_sample(n, rng), rng) for _ in range(count)]
    # a_nn lowered by 2: the first negative minor comes late
    pascal = [[comb(i + j, i) for j in range(n)] for i in range(n)]
    pascal[-1][-1] -= 2
    samples += [rand_matrix(n, rng), Matrix(pascal)]
    if n <= 6:
        # a TNN input makes both scans evaluate all C(2n, n) - 1 minors
        samples.append(tp_sample(n, rng))
    witnesses = [first_negative_minor(x) for x in samples]
    assert witnesses == [reference_first_negative_minor(x) for x in samples]
    assert len(set(witnesses)) > 2
    assert (None in witnesses) == (n <= 6)


def test_first_negative_minor_past_the_scan_bound_is_greedy():
    # n = 9 has C(18, 9) - 1 = 48,619 minors, past the bound
    assert comb(18, 9) - 1 > MAX_CHAMBER_SET_MINORS
    rng = random.Random(48)
    x = perturbed(tp_sample(9, rng), rng)
    while is_tnn(x):
        x = perturbed(tp_sample(9, rng), rng)
    witness = first_negative_minor(x)
    assert witness == _minimal_negative_minor(x)
    assert witness[2] < 0
    assert first_negative_minor(tp_sample(9, rng)) is None


def cauchon_zeros(x):
    return frozenset((i, j) for i, row in enumerate(_cauchon_matrix(x, never))
                     for j, value in enumerate(row) if not value)


@pytest.mark.parametrize("n, points", [(3, 2), (4, 1)])
def test_cauchon_zeros_name_the_double_cell(n, points):
    """Positive points of the seed scheme of each cell: one zero pattern
    per cell, distinct cells giving distinct patterns."""
    rng = random.Random(45)
    perms = all_permutations(n)
    cells = {}
    for u in perms:
        for v in perms:
            sch = seed_scheme(u, v)
            for _ in range(points):
                x = product(sch, [Fraction(rng.randint(1, 9),
                                           rng.randint(1, 5))
                                  for _ in range(sch.length)])
                assert double_cell_of(x) == (u, v)
                assert cells.setdefault(cauchon_zeros(x), (u, v)) == (u, v)
    assert len(cells) == len(perms) ** 2


def test_tp_samples_are_tp():
    rng = random.Random(40)
    for n in (2, 3, 4):
        x = tp_sample(n, rng)
        assert is_tp(x) and reference_is_tp(x)


def test_w_chamber_sets_identity_gives_prefixes():
    e3 = Permutation.identity(3)
    assert w_chamber_sets(e3) == [(1,), (1, 2), (1, 2, 3)]


def test_w_chamber_sets_longest_gives_all():
    w0 = Permutation.longest_element(3)
    assert len(w_chamber_sets(w0)) == 7


def test_w_chamber_sets_mixed():
    w = Permutation.from_string("231")
    assert w_chamber_sets(w) == [
        (1,), (3,), (1, 2), (1, 3), (1, 2, 3)]


@pytest.mark.parametrize("n", range(1, 7))
def test_w_chamber_sets_match_filtering_every_subset(n):
    for w in all_permutations(n):
        assert w_chamber_sets(w) == reference_w_chamber_sets(w)


def test_w_chamber_sets_of_a_chain_cost_no_subset_scan():
    e20 = Permutation.identity(20)
    t0 = time.perf_counter()
    sets = w_chamber_sets(e20)
    assert time.perf_counter() - t0 < 0.05
    assert sets == [tuple(range(1, k + 1)) for k in range(1, 21)]


def test_w_chamber_sets_refuse_past_their_limit():
    # w0 of size n has 2^n - 1 chamber sets
    with pytest.raises(TooMuchWork, match="has more than 20,000 chamber sets"):
        w_chamber_sets(Permutation.longest_element(15))
    assert len(w_chamber_sets(Permutation.longest_element(14))) == 16383


def test_chamber_set_family_is_counted_before_any_minor(monkeypatch):
    def no_minor(*args):
        raise AssertionError("a minor was evaluated")

    monkeypatch.setattr(positivity, "minor", no_minor)
    w9 = Permutation.longest_element(9)
    with pytest.raises(TooMuchWork, match="has 48,619 minors, more than "
                       "MAX_CHAMBER_SET_MINORS = 20,000"):
        chamber_set_criterion(w9, w9, Matrix.identity(9))
    # the bound covers the open cell up to n = 8
    assert comb(16, 8) - 1 <= MAX_CHAMBER_SET_MINORS
    evaluated = []
    monkeypatch.setattr(positivity, "minor",
                        lambda x, rows, cols: evaluated.append(rows) or 1)
    w8 = Permutation.longest_element(8)
    assert chamber_set_criterion(w8, w8, Matrix.identity(8)).verdict
    assert len(evaluated) == comb(16, 8) - 1


def test_chamber_set_criterion_identity_cell():
    e2 = Permutation.identity(2)
    report = chamber_set_criterion(e2, e2, mat([[2, 0], [0, 3]]))
    assert report.verdict
    report = chamber_set_criterion(e2, e2, mat([[-1, 0], [0, 3]]))
    assert not report.verdict
    assert report.witness is not None


@pytest.mark.parametrize("u, v", [("321", "321"), ("21", "321")],
                         ids=["cell-larger", "sides-differ"])
def test_chamber_set_criterion_refuses_a_size_mismatch(u, v):
    x = Matrix([[2, 1], [1, 1]])
    with pytest.raises(SizeMismatch, match="must share one size"):
        chamber_set_criterion(Permutation.from_string(u),
                              Permutation.from_string(v), x)


def test_chamber_criterion_refuses_a_size_mismatch():
    with pytest.raises(SizeMismatch, match="matrix size 2 != scheme size 3"):
        chamber_criterion(parse_scheme("h1 h2 h3"), Matrix([[2, 1], [1, 1]]))


def test_chamber_criterion_running_gl2():
    sch = parse_scheme("h1 f1 h2 e1")
    good = product(sch, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    assert chamber_criterion(sch, good).verdict
    bad = product(sch, [Fraction(1), Fraction(-2), Fraction(3), Fraction(4)])
    report = chamber_criterion(sch, bad)
    assert not report.verdict


def test_criteria_agree_with_is_tnn_in_cell():
    rng = random.Random(41)
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            for positive in (True, False):
                attempts = 0
                while attempts < 4:
                    vals = []
                    for _ in range(sch.length):
                        t = Fraction(rng.randint(1, 9), rng.randint(1, 5))
                        vals.append(t)
                    if not positive:
                        vals[rng.randrange(len(vals))] *= -1
                    x = product(sch, vals)
                    if double_cell_of(x) != (u, v):
                        attempts += 1
                        continue
                    truth = reference_is_tnn(x)
                    assert is_tnn(x) == truth
                    assert chamber_criterion(sch, x).verdict == truth
                    assert chamber_set_criterion(u, v, x).verdict == truth
                    if positive:
                        assert truth
                    break


def test_fekete_family_sizes():
    for n in range(2, 6):
        fam1, fam2 = fekete_families(n)
        assert len(fam1) == n * n
        assert len(fam2) == n * n
        assert len(set(fam1)) == n * n
        assert len(set(fam2)) == n * n


def test_fekete_families_n2_coincide():
    fam1, fam2 = fekete_families(2)
    want = {((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((1, 2), (1, 2))}
    assert set(fam1) == set(fam2) == want


def test_fekete_families_n3_values():
    fam1, fam2 = fekete_families(3)
    assert set(fam1) == {
        ((1,), (1,)), ((1,), (2,)), ((1,), (3,)), ((2,), (1,)), ((3,), (1,)),
        ((1, 2), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (1, 2)),
        ((1, 2, 3), (1, 2, 3))}
    assert set(fam2) == {
        ((1,), (2,)), ((1,), (3,)), ((2,), (1,)), ((2,), (2,)), ((3,), (1,)),
        ((1, 2), (1, 2)), ((1, 2), (2, 3)), ((2, 3), (1, 2)),
        ((1, 2, 3), (1, 2, 3))}


def test_fekete_scheme_families_match():
    # the schemes' chamber families against the solid-interval definition
    for n in (2, 3, 4):
        for variant in (1, 2):
            sch = fekete_scheme(n, variant)
            fam = set(chamber_minor_family(sch))
            want = reference_fekete_families(n)[variant - 1]
            assert fam == set(want), (n, variant)


def test_fekete_families_equal_the_definition_in_order():
    for n in range(1, 11):
        assert fekete_families(n) == reference_fekete_families(n), n


def test_fekete_criterion_matches_is_tp():
    rng = random.Random(42)
    samples = [tp_sample(4, rng) for _ in range(10)]
    samples += [rand_matrix(4, rng) for _ in range(10)]
    samples.append(Matrix.identity(4))
    for n in (1, 2, 3, 4):
        samples += is_tp_samples(n, rng)
    verdicts = set()
    for x in samples:
        truth = reference_is_tp(x)
        assert is_tp(x) == truth, x
        assert fekete_criterion(x, 1).verdict == truth
        assert fekete_criterion(x, 2).verdict == truth
        verdicts.add(truth)
    assert verdicts == {True, False}


# a bool, a float equal to 1 or 2 and an unhashable list are refused as
# well, the list with ValidationError before the family cache sees it
@pytest.mark.parametrize("variant",
                         [0, 3, -1, "1", None, True, 1.0, 2.0, [1]])
def test_fekete_rejects_other_variants(variant):
    x = Matrix.identity(3)
    message = f"variant must be 1 or 2, got {variant!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        fekete_criterion(x, variant)
    with pytest.raises(ValidationError, match=re.escape(message)):
        fekete_scheme(3, variant)


# a bool counts as no size, and fekete_families(True) would otherwise
# hit the cached n = 1 families
@pytest.mark.parametrize("n", [True, 0, -1, 2.0, "2", None])
def test_fekete_rejects_other_sizes(n):
    message = f"size must be an int >= 1, got {n!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        fekete_families(n)
    with pytest.raises(ValidationError, match=re.escape(message)):
        fekete_scheme(n, 1)


def test_criterion_report_json():
    report = fekete_criterion(mat([[1, 2], [3, 4]]), 1)
    blob = report.to_json()
    assert blob["verdict"] is False
    assert set(blob["witness"]) == {"rows", "cols", "value"}


def test_gl3_catalog_shape():
    catalog = gl3_criteria_catalog()
    assert len(catalog) == 34
    assert "abcG" in catalog and "gABC" in catalog
    for code, entry in catalog.items():
        assert entry.code == code
        assert len(entry.family) == 9
        assert len(entry.bounded) == 4
        assert set(GL3_COMMON_MINORS) <= set(entry.family)
        assert len(code) == 4
        for other in entry.neighbors:
            assert code in catalog[other].neighbors


def test_gl3_catalog_codes_frozen():
    assert sorted(gl3_criteria_catalog()) == [
        "aBCD", "aBDF", "aCDE", "aDEF", "aEFG", "abCE", "abEG", "abcG",
        "acBF", "acFG", "bcdA", "bcdG", "bdfA", "bdfG", "bfAC", "bfCE",
        "bfEG", "cdeA", "cdeG", "ceAB", "ceBF", "ceFG", "defA", "defG",
        "efgA", "egAB", "egBF", "fgAC", "fgCE", "gABC", "gBCD", "gBDF",
        "gCDE", "gDEF"]


def test_gl3_catalog_criteria_detect_tp():
    rng = random.Random(43)
    catalog = gl3_criteria_catalog()
    tp = tp_sample(3, rng)
    not_tp = rand_matrix(3, rng)
    while is_tp(not_tp):
        not_tp = rand_matrix(3, rng)
    for entry in catalog.values():
        assert all(v > 0 for v in entry_minors(entry, tp))
        assert not all(v > 0 for v in entry_minors(entry, not_tp))


def entry_minors(entry, x):
    from tpfact.linalg import minor
    return [minor(x, rows, cols) for rows, cols in entry.family]
