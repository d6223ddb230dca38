"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (run pytest -s to see them
interleaved; with default capture they show up on failure output).
All arithmetic is exact; every comparison is exact equality.
"""

import random
from fractions import Fraction

from reference import (Polynomial, all_permutations,
                       chamber_values_from_parameters,
                       elementary_product, reduced_words,
                       reference_fekete_families, reference_is_tnn,
                       reference_is_tp, symbolic_entry, symbolic_minor)
from tpfact.bruhat import bruhat_cell_of, double_cell_of, in_bruhat_cell
from tpfact.linalg import Matrix, det, minor
from tpfact.networks import build_network, evaluate_network
from tpfact.permutations import Permutation
from tpfact.positivity import (
    GL3_COMMON_MINORS,
    chamber_criterion,
    chamber_set_criterion,
    fekete_criterion,
    fekete_families,
    fekete_scheme,
    gl3_criteria_catalog,
    is_tnn,
    is_tp,
)
from tpfact.product_map import product
from tpfact.schemes import (
    SchemeSymbol,
    FactorizationScheme,
    build_arrangement,
    chamber_minor_family,
    enumerate_isotopy_types,
    parse_scheme,
    seed_scheme,
)
from tpfact.solver import solve
from tpfact.twist import twist

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def report(num, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def positive_vals(length, rng):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(length)]


def nonzero_vals(length, rng):
    out = []
    for _ in range(length):
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        out.append(v if v else Fraction(1))
    return out


def random_scheme(u, v, rng):
    """A uniformly shuffled scheme of type (u, v)."""
    n = u.n
    e_words = sorted(reduced_words(v))
    f_words = sorted(reduced_words(u))
    ew = e_words[rng.randrange(len(e_words))]
    fw = f_words[rng.randrange(len(f_words))]
    horder = list(range(1, n + 1))
    rng.shuffle(horder)
    parts = ([SchemeSymbol("E", i) for i in ew]
             + [SchemeSymbol("F", i) for i in fw]
             + [SchemeSymbol("H", j) for j in horder])
    slots = sorted(range(len(parts)), key=lambda _: rng.random())
    word = [None] * len(parts)
    fill = iter(parts)
    for p in sorted(slots[:len(ew)]):
        word[p] = next(fill)
    for p in sorted(slots[len(ew):len(ew) + len(fw)]):
        word[p] = next(fill)
    for p in sorted(slots[len(ew) + len(fw):]):
        word[p] = next(fill)
    return FactorizationScheme.make(n, word)


def test_criterion_01_gl2_closed_forms():
    def body():
        sch = parse_scheme("h1 f1 h2 e1")
        rng = random.Random(101)
        for _ in range(20):
            vals = nonzero_vals(4, rng)
            x = product(sch, vals)
            e = x.entry
            assert solve(sch, x) == [
                e(1, 1), e(2, 1), det(x) / e(1, 1), e(1, 2) / e(1, 1)] == vals

    report(1, "GL_2 closed forms", body)


def test_criterion_02_running_example_t9_and_monomials():
    def body():
        sch = parse_scheme(RUNNING)
        rng = random.Random(102)
        for _ in range(20):
            vals = positive_vals(13, rng)
            x = product(sch, vals)
            assert x.entry(1, 4) == 0 and x.entry(2, 4) == 0
            assert minor(x, (2, 3, 4), (1, 2, 3)) == 0
            t9 = (minor(x, (2, 3), (1, 2))
                  * (x.entry(4, 3) * minor(x, (1, 2), (1, 2))
                     - minor(x, (1, 2, 4), (1, 2, 3)))
                  / (x.entry(2, 3) * minor(x, (2, 4), (1, 2))
                     * minor(x, (1, 2, 3), (1, 2, 3))))
            assert solve(sch, x)[8] == t9 == vals[8]
        t = [Polynomial.variable(13, k) for k in range(1, 14)]
        one = Polynomial.constant(13, 1)
        assert symbolic_minor(sch, (2, 3), (1, 2)) == (
            t[2] * t[6] * t[7] * t[8] * t[11])
        assert symbolic_minor(sch, (1, 2), (1, 2)) == (
            t[7] * t[11] * (one + t[5] * t[8]))
        assert symbolic_minor(sch, (1, 2, 4), (1, 2, 3)) == t[3] * t[7] * t[11]
        assert symbolic_minor(sch, (2, 4), (1, 2)) == (
            t[3] * t[6] * t[7] * t[8] * t[11])
        assert symbolic_minor(sch, (1, 2, 3), (1, 2, 3)) == t[2] * t[7] * t[11]
        assert symbolic_entry(sch, 4, 3) == t[3]
        assert symbolic_entry(sch, 2, 3) == t[5]

    report(2, "running-example parameter", body)


def test_criterion_03_round_trip_factorization():
    def body():
        rng = random.Random(103)
        for u in all_permutations(3):
            for v in all_permutations(3):
                schemes = {seed_scheme(u, v)}
                while len(schemes) < 3:
                    schemes.add(random_scheme(u, v, rng))
                for sch in sorted(schemes, key=str):
                    for _ in range(10):
                        vals = positive_vals(sch.length, rng)
                        assert solve(sch, product(sch, vals)) == vals
        perms4 = all_permutations(4)
        for _ in range(20):
            u = perms4[rng.randrange(24)]
            v = perms4[rng.randrange(24)]
            sch = random_scheme(u, v, rng)
            vals = positive_vals(sch.length, rng)
            assert solve(sch, product(sch, vals)) == vals

    report(3, "round-trip factorization", body)


def test_criterion_04_twist_involution_and_positivity():
    def body():
        rng = random.Random(104)
        for u in all_permutations(3):
            for v in all_permutations(3):
                sch = seed_scheme(u, v)
                vals = positive_vals(sch.length, rng)
                x = product(sch, vals)
                assert twist(twist(x, u, v), u.inverse(), v.inverse()) == x
                assert is_tnn(x) and is_tnn(twist(x, u, v))
        w0_2 = Permutation.longest_element(2)
        sch2 = parse_scheme("h1 f1 h2 e1")
        for _ in range(20):
            vals = nonzero_vals(4, rng)
            x = product(sch2, vals)
            e = x.entry
            assert twist(x, w0_2, w0_2) == Matrix((
                (e(1, 1) / (e(1, 2) * e(2, 1)), 1 / e(2, 1)),
                (1 / e(1, 2), e(2, 2) / det(x))))
        w0_3 = Permutation.longest_element(3)
        sch3 = seed_scheme(w0_3, w0_3)
        for _ in range(20):
            vals = positive_vals(sch3.length, rng)
            x = product(sch3, vals)
            e = x.entry
            d = det(x)
            assert twist(x, w0_3, w0_3) == Matrix((
                (e(1, 1) / (e(3, 1) * e(1, 3)),
                 minor(x, (1, 2), (1, 3)) / (e(3, 1) * minor(x, (1, 2), (2, 3))),
                 1 / e(3, 1)),
                (minor(x, (1, 3), (1, 2)) / (e(1, 3) * minor(x, (2, 3), (1, 2))),
                 (e(3, 3) * minor(x, (1, 2), (1, 2)) - d)
                 / (minor(x, (2, 3), (1, 2)) * minor(x, (1, 2), (2, 3))),
                 e(3, 2) / minor(x, (2, 3), (1, 2))),
                (1 / e(1, 3),
                 e(2, 3) / minor(x, (1, 2), (2, 3)),
                 minor(x, (2, 3), (2, 3)) / d)))

    report(4, "twist involution and positivity", body)


def test_criterion_05_oracle_equivalence():
    def body():
        rng = random.Random(105)
        instances = 0
        while instances < 200:
            n = rng.randint(2, 5)
            perms = all_permutations(n)
            u = perms[rng.randrange(len(perms))]
            v = perms[rng.randrange(len(perms))]
            sch = random_scheme(u, v, rng)
            net = build_network(sch)
            vals = nonzero_vals(sch.length, rng)
            x = elementary_product(sch, vals)
            assert product(sch, vals) == x
            assert evaluate_network(net, vals) == x
            for _ in range(4):
                k = rng.randint(1, n)
                rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
                cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
                assert (symbolic_minor(sch, rows, cols).evaluate(vals)
                        == minor(x, rows, cols))
                instances += 1

    report(5, "oracle equivalence", body)


def test_criterion_06_criteria_equivalence():
    def body():
        rng = random.Random(106)
        for u in all_permutations(3):
            for v in all_permutations(3):
                sch = seed_scheme(u, v)
                good = 0
                while good < 50:
                    vals = positive_vals(sch.length, rng)
                    x = product(sch, vals)
                    assert reference_is_tnn(x) and is_tnn(x)
                    assert chamber_criterion(sch, x).verdict
                    assert chamber_set_criterion(u, v, x).verdict
                    good += 1
                bad = 0
                while bad < 50:
                    vals = positive_vals(sch.length, rng)
                    vals[rng.randrange(len(vals))] *= -1
                    x = product(sch, vals)
                    if double_cell_of(x) != (u, v):
                        continue
                    truth = reference_is_tnn(x)
                    assert not truth
                    assert is_tnn(x) == truth
                    assert chamber_criterion(sch, x).verdict == truth
                    assert chamber_set_criterion(u, v, x).verdict == truth
                    bad += 1

    report(6, "criteria equivalence", body)


def test_criterion_07_gl3_catalog():
    def body():
        w0 = Permutation.longest_element(3)
        graph = enumerate_isotopy_types(w0, w0)
        assert len(graph.nodes) == 34
        assert graph.is_connected()
        shared = set.intersection(*(set(node.family) for node in graph.nodes))
        assert shared == set(GL3_COMMON_MINORS) == {
            ((3,), (1,)), ((1,), (3,)),
            ((2, 3), (1, 2)), ((1, 2), (2, 3)),
            ((1, 2, 3), (1, 2, 3))}
        for node in graph.nodes:
            assert len(set(node.family)) == 9
        catalog = gl3_criteria_catalog()
        assert len(catalog) == 34
        assert "abcG" in catalog and "gABC" in catalog

    report(7, "GL_3 catalog", body)


def test_criterion_08_fekete_families():
    def body():
        for n in range(2, 6):
            fam1, fam2 = reference_fekete_families(n)
            assert len(set(fam1)) == n * n
            assert len(set(fam2)) == n * n
            assert set(chamber_minor_family(fekete_scheme(n, 1))) == set(fam1)
            assert set(chamber_minor_family(fekete_scheme(n, 2))) == set(fam2)
            assert fekete_families(n) == (fam1, fam2)
        rng = random.Random(108)
        w0 = Permutation.longest_element(4)
        sch = seed_scheme(w0, w0)
        samples = []
        for _ in range(50):
            samples.append(product(sch, positive_vals(sch.length, rng)))
        for _ in range(50):
            samples.append(Matrix(tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(4)) for _ in range(4))))
        samples.append(Matrix.identity(4))
        assert len(samples) >= 100
        for x in samples:
            truth = reference_is_tp(x)
            assert is_tp(x) == truth
            assert fekete_criterion(x, 1).verdict == truth
            assert fekete_criterion(x, 2).verdict == truth

    report(8, "Fekete families", body)


def test_criterion_09_identity_fuzzer():
    def body():
        from tpfact.identities import fuzz
        for n in (4, 5):
            rep = fuzz(n, 1000, 0)
            assert rep["failures"] == []
            assert rep == fuzz(n, 1000, 0)

    report(9, "identity fuzzer", body)


def test_criterion_10_inverse_ansatz():
    def body():
        sch = parse_scheme(RUNNING)
        levels = build_arrangement(sch)
        rng = random.Random(110)
        ch31 = next(c for c in levels[1] if c.sets == ((3,), (1,)))
        ch123 = next(c for c in levels[3] if c.sets == ((1, 2, 3), (1, 2, 4)))
        for _ in range(50):
            t = positive_vals(13, rng)
            xp = twist(product(sch, t), sch.u, sch.v)
            values = chamber_values_from_parameters(sch, t)
            for chamber, val in values.items():
                assert minor(xp, chamber.row_set, chamber.col_set) == val
            assert values[ch31] == 1 / (t[1] * t[5])
            assert values[ch123] == 1 / (t[0] * t[3] * t[7] * t[11])

    report(10, "inverse-ansatz consistency", body)


def test_criterion_11_dimension_and_structure():
    def body():
        rng = random.Random(111)
        for u_str, v_str in (("21", "21"), ("321", "213"), ("231", "231")):
            u = Permutation.from_string(u_str)
            v = Permutation.from_string(v_str)
            for node in enumerate_isotopy_types(u, v).nodes:
                assert node.scheme.length == u.n + u.length() + v.length()
        for u in all_permutations(3):
            for v in all_permutations(3):
                sch = seed_scheme(u, v)
                assert sch.length == 3 + u.length() + v.length()
                x = product(sch, positive_vals(sch.length, rng))
                assert double_cell_of(x) == (u, v)
        for n in (2, 3, 4):
            done = 0
            while done < 10:
                x = Matrix(tuple(
                    tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(n)) for _ in range(n)))
                if det(x) == 0:
                    continue
                hits = [w for w in all_permutations(n) if in_bruhat_cell(x, w)]
                assert len(hits) == 1 and hits[0] == bruhat_cell_of(x)
                done += 1

    report(11, "dimension and structure checks", body)
