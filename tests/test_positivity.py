import random
import re
from fractions import Fraction

import pytest

from reference import reference_is_tp
from tpfact.errors import ValidationError
from tpfact.linalg import Matrix, minor
from tpfact.permutations import Permutation, all_permutations
from tpfact.positivity import (
    GL3_COMMON_MINORS,
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
from tpfact.schemes import chamber_minor_family, seed_scheme


def mat(rows):
    return Matrix(tuple(tuple(Fraction(e) for e in row) for row in rows))


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


def test_chamber_set_criterion_identity_cell():
    e2 = Permutation.identity(2)
    report = chamber_set_criterion(e2, e2, mat([[2, 0], [0, 3]]))
    assert report.verdict
    report = chamber_set_criterion(e2, e2, mat([[-1, 0], [0, 3]]))
    assert not report.verdict
    assert report.witness is not None


def test_chamber_criterion_running_gl2():
    from tpfact.schemes import parse_scheme
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
                    from tpfact.bruhat import double_cell_of
                    if double_cell_of(x) != (u, v):
                        attempts += 1
                        continue
                    truth = is_tnn(x)
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
    for n in (2, 3, 4):
        for variant in (1, 2):
            sch = fekete_scheme(n, variant)
            fam = set(chamber_minor_family(sch))
            assert fam == set(fekete_families(n)[variant - 1]), (n, variant)


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


@pytest.mark.parametrize("variant", [0, 3, -1, "1", None])
def test_fekete_rejects_other_variants(variant):
    x = Matrix.identity(3)
    message = f"variant must be 1 or 2, got {variant!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        fekete_criterion(x, variant)
    with pytest.raises(ValidationError, match=re.escape(message)):
        fekete_scheme(3, variant)


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
