import itertools
import random
from fractions import Fraction

import pytest

from reference import (Polynomial, all_permutations, elementary_product,
                       symbolic_entry, symbolic_minor)
from tpfact.errors import (ArityMismatch, BadToken, IndexOutOfRange,
                           ValidationError, ZeroDiagonal)
from tpfact.linalg import minor
from tpfact.networks import build_network, evaluate_network
from tpfact.permutations import Permutation
from tpfact.product_map import parameters, product
from tpfact.schemes import (FactorizationScheme, SchemeSymbol, apply_move,
                            available_moves, parse_scheme, seed_scheme)

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def all_paths(scheme, source, sink):
    # every height trajectory with its weight monomial (exponent tuple)
    l = scheme.length
    out = []

    def walk(p, h, heights, expo):
        if p == l:
            if h == sink:
                out.append((tuple(heights), tuple(expo)))
            return
        sym = scheme.word[p]
        if sym.kind == "H":
            nxt = list(expo)
            if sym.index == h:
                nxt[p] += 1
            walk(p + 1, h, heights + [h], nxt)
            return
        walk(p + 1, h, heights + [h], expo)
        if sym.kind == "E" and sym.index == h:
            nxt = list(expo)
            nxt[p] += 1
            walk(p + 1, h + 1, heights + [h + 1], nxt)
        elif sym.kind == "F" and sym.index + 1 == h:
            nxt = list(expo)
            nxt[p] += 1
            walk(p + 1, h - 1, heights + [h - 1], nxt)

    walk(0, source, [source], [0] * l)
    return out


def minor_by_path_families(scheme, rows, cols, values):
    # oracle: sum the weights of vertex-disjoint path families, sources
    # and sinks matched in increasing order
    candidates = [all_paths(scheme, i, j) for i, j in zip(rows, cols)]
    total = Fraction(0)
    for family in itertools.product(*candidates):
        disjoint = True
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                ha, hb = family[a][0], family[b][0]
                if any(x == y for x, y in zip(ha, hb)):
                    disjoint = False
                    break
            if not disjoint:
                break
        if disjoint:
            term = Fraction(1)
            for _, expo in family:
                for k, e in enumerate(expo):
                    term *= values[k] ** e
            total += term
    return total


def rand_vals(length, rng):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(length)]


def test_gl2_entries():
    sch = parse_scheme("h1 f1 h2 e1")
    t = [Polynomial.variable(4, k) for k in range(1, 5)]
    assert symbolic_entry(sch, 1, 1) == t[0]
    assert symbolic_entry(sch, 1, 2) == t[0] * t[3]
    assert symbolic_entry(sch, 2, 1) == t[1]
    assert symbolic_entry(sch, 2, 2) == t[1] * t[3] + t[2]


@pytest.mark.parametrize("call", [
    lambda sch: symbolic_entry(sch, "a", 1),
    lambda sch: symbolic_entry(sch, 1, 3),
    lambda sch: symbolic_minor(sch, (1,), (1.5,)),
    lambda sch: symbolic_minor(sch, (0,), (1,)),
], ids=["entry-non-integer", "entry-out-of-range",
        "minor-non-integer", "minor-out-of-range"])
def test_bad_indices_raise_index_out_of_range(call):
    with pytest.raises(IndexOutOfRange):
        call(parse_scheme("h1 f1 h2 e1"))


def test_running_example_monomials():
    sch = parse_scheme(RUNNING)
    t = [Polynomial.variable(13, k) for k in range(1, 14)]
    one = Polynomial.constant(13, 1)
    assert symbolic_minor(sch, (2, 3), (1, 2)) == t[2] * t[6] * t[7] * t[8] * t[11]
    assert symbolic_minor(sch, (1, 2), (1, 2)) == t[7] * t[11] * (one + t[5] * t[8])
    assert symbolic_minor(sch, (1, 2, 4), (1, 2, 3)) == t[3] * t[7] * t[11]
    assert symbolic_minor(sch, (2, 4), (1, 2)) == t[3] * t[6] * t[7] * t[8] * t[11]
    assert symbolic_minor(sch, (1, 2, 3), (1, 2, 3)) == t[2] * t[7] * t[11]
    assert symbolic_entry(sch, 4, 3) == t[3]
    assert symbolic_entry(sch, 2, 3) == t[5]


def test_polynomial_str():
    t = [Polynomial.variable(4, k) for k in range(1, 5)]
    assert str(t[0] * t[3] + t[2]) == "t3 + t1*t4"
    assert str(t[1] * t[1]) == "t2^2"
    assert str(Polynomial.constant(4, 0)) == "0"
    assert str(Polynomial.constant(4, 3)) == "3"


def test_polynomial_evaluate_arity():
    p = Polynomial.variable(3, 1)
    with pytest.raises(ArityMismatch):
        p.evaluate([Fraction(1)])


def test_network_evaluation_equals_product():
    rng = random.Random(6)
    for text in ("h1 f1 h2 e1", RUNNING, "e1 e2 e1 f1 f2 f1 h1 h2 h3"):
        sch = parse_scheme(text)
        net = build_network(sch)
        for _ in range(5):
            vals = rand_vals(sch.length, rng)
            reference = elementary_product(sch, vals)
            assert evaluate_network(net, vals) == reference
            assert product(sch, vals) == reference


def signed_vals(sch, rng):
    # crossing parameters may be negative or zero; bullets stay nonzero
    return [Fraction(rng.randint(-4, 4) if sym.kind != "H"
                     else rng.choice((-9, -2, 1, 5)), rng.randint(1, 3))
            for sym in sch.word]


def test_product_matches_both_oracles_on_moved_schemes():
    # product multiplies out the elementary factors and shares no code
    # with the path polynomials: compare it with the ordered product of
    # dense matrices on every GL_3 cell and 40 seeded GL_4 cells, and
    # with the token-set path sums on GL_3
    rng = random.Random(24)
    cells = [(u, v) for u in all_permutations(3) for v in all_permutations(3)]
    gl4 = [(u, v) for u in all_permutations(4) for v in all_permutations(4)]
    cells += rng.sample(gl4, 40)
    signs = set()
    for u, v in cells:
        sch = seed_scheme(u, v)
        for _ in range(4):
            sch = apply_move(sch, rng.choice(available_moves(sch)))
        vals = signed_vals(sch, rng)
        signs.update((t > 0) - (t < 0)
                     for sym, t in zip(sch.word, vals) if sym.kind != "H")
        x = product(sch, vals)
        assert evaluate_network(build_network(sch), vals) == x, sch
        assert elementary_product(sch, vals) == x, sch
        if sch.n == 3:
            for i in range(1, 4):
                for j in range(1, 4):
                    entry = symbolic_entry(sch, i, j).evaluate(vals)
                    assert entry == x.entry(i, j), (sch, i, j)
        k = rng.choice([k for k, s in enumerate(sch.word) if s.kind == "H"])
        zeroed = vals[:k] + [Fraction(0)] + vals[k + 1:]
        with pytest.raises(ZeroDiagonal):
            product(sch, zeroed)
        with pytest.raises(ZeroDiagonal):
            evaluate_network(build_network(sch), zeroed)
    assert signs == {-1, 0, 1}


def test_symbolic_minor_equals_determinant_minor():
    rng = random.Random(7)
    for text in ("h1 f1 h2 e1", "e1 e2 e1 f1 f2 f1 h1 h2 h3", RUNNING):
        sch = parse_scheme(text)
        n = sch.n
        for _ in range(5):
            vals = rand_vals(sch.length, rng)
            x = product(sch, vals)
            for k in range(1, n + 1):
                rows = tuple(sorted(rng.sample(range(1, n + 1), k)))
                cols = tuple(sorted(rng.sample(range(1, n + 1), k)))
                assert (symbolic_minor(sch, rows, cols).evaluate(vals)
                        == minor(x, rows, cols))


def test_minor_equals_disjoint_path_families():
    rng = random.Random(8)
    texts = ("h1 f1 h2 e1",
             "h1 e1 h2 f1",
             "e1 e2 e1 f1 f2 f1 h1 h2 h3",
             "f1 h1 e2 h2 e1 f2 h3")
    for text in texts:
        sch = parse_scheme(text)
        n = sch.n
        vals = rand_vals(sch.length, rng)
        x = product(sch, vals)
        for k in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), k):
                for cols in itertools.combinations(range(1, n + 1), k):
                    assert (minor_by_path_families(sch, rows, cols, vals)
                            == minor(x, rows, cols))


def test_coefficients_are_positive():
    for text in ("h1 f1 h2 e1", RUNNING):
        sch = parse_scheme(text)
        n = sch.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert symbolic_entry(sch, i, j).coefficients_positive()


def test_empty_minor_is_one():
    sch = parse_scheme("h1 f1 h2 e1")
    assert symbolic_minor(sch, (), ()) == Polynomial.constant(4, 1)


def test_network_rejects_wrong_arity():
    sch = seed_scheme(Permutation.from_string("21"), Permutation.from_string("12"))
    net = build_network(sch)
    with pytest.raises(ArityMismatch):
        evaluate_network(net, [Fraction(1)])


@pytest.mark.parametrize("level", [0, 2])
def test_network_rejects_a_level_outside_the_strip(level):
    # a raw scheme skips validation; its e-level must not wrap around
    # to another column or fall off the matrix
    raw = FactorizationScheme(2, (SchemeSymbol("H", 1), SchemeSymbol("E", level),
                                  SchemeSymbol("H", 2)))
    with pytest.raises(BadToken, match="level outside"):
        evaluate_network(build_network(raw), [1, 1, 1])


@pytest.mark.parametrize("bad", [0.5, True, "1", None])
def test_parameters_take_only_exact_scalars(bad):
    sch = parse_scheme("h1 h2 e1")
    with pytest.raises(ValidationError, match="parameter 3"):
        product(sch, [Fraction(1, 2), 1, bad])
    with pytest.raises(ValidationError, match="parameter 1"):
        evaluate_network(build_network(sch), [bad, 1, 1])
    assert parameters([2, Fraction(1, 3)], 2) == [2, Fraction(1, 3)]
