import random
from fractions import Fraction

import pytest

import tpfact.solver
from reference import (
    ZeroParameter,
    all_permutations,
    big_chamber_monomial,
    big_chambers,
    chamber_values_from_parameters,
    pi_monomial,
    reference_solve,
)
from tpfact.bruhat import double_cell_of
from tpfact.errors import (ArityMismatch, BadHPart, DecompositionFailure,
                           NotReducedE, SizeMismatch, WrongCell, ZeroMinor)
from tpfact.linalg import Matrix, det, minor
from tpfact.permutations import Permutation
from tpfact.positivity import chamber_criterion
from tpfact.product_map import product
from tpfact.schemes import (
    FactorizationScheme,
    SchemeSymbol,
    apply_move,
    available_moves,
    build_arrangement,
    parse_scheme,
    seed_scheme,
)
from tpfact.solver import solve
from tpfact.twist import twist

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def rand_vals(length, rng):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(length)]


def rand_nonzero_vals(length, rng):
    out = []
    for _ in range(length):
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        out.append(v if v else Fraction(1))
    return out


def test_gl2_closed_form():
    sch = parse_scheme("h1 f1 h2 e1")
    rng = random.Random(30)
    for _ in range(20):
        vals = rand_nonzero_vals(4, rng)
        x = product(sch, vals)
        t = solve(sch, x)
        e = x.entry
        assert t == [e(1, 1), e(2, 1), det(x) / e(1, 1), e(1, 2) / e(1, 1)]
        assert t == vals


def test_big_chamber_layout():
    sch = parse_scheme(RUNNING)
    f2 = big_chambers(sch, "F", 2)
    assert [(b.start, b.end) for b in f2] == [(0, 1), (1, 9), (9, 14)]
    f3 = big_chambers(sch, "F", 3)
    assert [(b.start, b.end) for b in f3] == [(0, 4), (4, 14)]
    e1 = big_chambers(sch, "E", 1)
    assert [(b.start, b.end) for b in e1] == [(0, 2), (2, 10), (10, 14)]


def test_t9_end_monomials():
    sch = parse_scheme(RUNNING)
    levels = build_arrangement(sch)
    rng = random.Random(31)
    vals = rand_vals(13, rng)
    x = product(sch, vals)
    xp = twist(x, sch.u, sch.v)

    def m(rows, cols):
        return minor(xp, rows, cols)

    above = next(b for b in big_chambers(sch, "F", 3) if b.start < 9 < b.end)
    below = next(b for b in big_chambers(sch, "F", 1) if b.start < 9 < b.end)
    left = next(b for b in big_chambers(sch, "F", 2) if b.end == 9)
    right = next(b for b in big_chambers(sch, "F", 2) if b.start == 9)

    assert big_chamber_monomial(levels, xp, above, "right") == m((1, 2, 3), (1, 2, 4))
    assert big_chamber_monomial(levels, xp, left, "right") == m((2, 3), (2, 4))
    assert (big_chamber_monomial(levels, xp, right, "left")
            == m((1, 2), (2, 4)) * m((2, 3), (1, 2))
            / (m((2, 3), (2, 4)) * m((3, 4), (1, 2))))
    assert (big_chamber_monomial(levels, xp, below, "left")
            == m((2,), (2,)) / m((3,), (2,)))

    t9 = (big_chamber_monomial(levels, xp, above, "right")
          * big_chamber_monomial(levels, xp, below, "left")
          / big_chamber_monomial(levels, xp, left, "right")
          / big_chamber_monomial(levels, xp, right, "left"))
    assert t9 == vals[8]


def test_t9_closed_form_in_x():
    sch = parse_scheme(RUNNING)
    rng = random.Random(32)
    for _ in range(20):
        vals = rand_vals(13, rng)
        x = product(sch, vals)
        t9 = (minor(x, (2, 3), (1, 2))
              * (x.entry(4, 3) * minor(x, (1, 2), (1, 2))
                 - minor(x, (1, 2, 4), (1, 2, 3)))
              / (x.entry(2, 3) * minor(x, (2, 4), (1, 2))
                 * minor(x, (1, 2, 3), (1, 2, 3))))
        assert solve(sch, x)[8] == t9 == vals[8]


def test_pi_monomials():
    sch = parse_scheme(RUNNING)
    levels = build_arrangement(sch)
    rng = random.Random(33)
    vals = rand_vals(13, rng)
    x = product(sch, vals)
    xp = twist(x, sch.u, sch.v)
    assert pi_monomial(levels, xp, 0) == 1
    assert pi_monomial(levels, xp, 2) == (
        minor(xp, (2, 3), (1, 2))
        / (minor(xp, (3, 4), (1, 2)) * minor(xp, (2, 3), (2, 4))))
    # diagonal scalings come from consecutive level monomial ratios
    t = solve(sch, x)
    for line, pos in ((1, 8), (2, 12), (3, 3), (4, 11)):
        assert t[pos - 1] == (pi_monomial(levels, xp, line)
                              / pi_monomial(levels, xp, line - 1))


def test_round_trip_running_example():
    sch = parse_scheme(RUNNING)
    rng = random.Random(34)
    for _ in range(10):
        vals = rand_vals(13, rng)
        assert solve(sch, product(sch, vals)) == vals


def test_round_trip_mixed_sign_parameters():
    sch = parse_scheme(RUNNING)
    rng = random.Random(35)
    done = 0
    while done < 5:
        vals = rand_nonzero_vals(13, rng)
        x = product(sch, vals)
        try:
            recovered = solve(sch, x)
        except (ZeroMinor, WrongCell):
            # sign flips can leave the cell or hit the boundary locus
            continue
        assert recovered == vals
        done += 1


def test_round_trip_every_s3_cell():
    rng = random.Random(36)
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            for _ in range(3):
                vals = rand_vals(sch.length, rng)
                assert solve(sch, product(sch, vals)) == vals


def test_solve_rejects_wrong_cell():
    sch = parse_scheme("h1 f1 h2 e1")
    from tpfact.linalg import Matrix
    with pytest.raises(WrongCell):
        solve(sch, Matrix.identity(2))


def test_solve_refuses_a_matrix_of_another_size():
    # the scheme's size is checked first, before the twist compares the
    # matrix with the scheme's permutations
    with pytest.raises(SizeMismatch, match=r"^matrix size 2 != scheme size 3$"):
        solve(parse_scheme("h1 f1 h2 e1 h3"), Matrix.identity(2))


@pytest.mark.parametrize("text, error", [("e1 e1 h1 h2", NotReducedE),
                                         ("e1 h1", BadHPart)])
def test_solve_and_chamber_criterion_validate_the_scheme(text, error):
    # a scheme built without make is validated as product validates it:
    # the first is not a WrongCell, neither gets a verdict
    bad = FactorizationScheme(2, tuple(map(SchemeSymbol.parse, text.split())))
    x = Matrix([[2, 1], [1, 1]])
    with pytest.raises(error):
        solve(bad, x)
    with pytest.raises(error):
        chamber_criterion(bad, x)


def test_solve_boundary_minor_vanishes():
    sch = parse_scheme("h1 f1 h2 e1")
    from tpfact.linalg import Matrix
    x = Matrix(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))))
    with pytest.raises(ZeroMinor):
        solve(sch, x)


def test_inverse_ansatz_running_example():
    sch = parse_scheme(RUNNING)
    levels = build_arrangement(sch)
    rng = random.Random(37)
    for _ in range(10):
        t = rand_vals(13, rng)
        x = product(sch, t)
        xp = twist(x, sch.u, sch.v)
        values = chamber_values_from_parameters(sch, t)
        assert len(values) == sch.length + 1
        for chamber, val in values.items():
            assert minor(xp, chamber.row_set, chamber.col_set) == val
    ch31 = next(c for c in levels[1] if c.sets == ((3,), (1,)))
    ch123 = next(c for c in levels[3] if c.sets == ((1, 2, 3), (1, 2, 4)))
    [top] = levels[4]
    assert values[ch31] == 1 / (t[1] * t[5])
    assert values[ch123] == 1 / (t[0] * t[3] * t[7] * t[11])
    assert values[top] == 1 / det(x) == 1 / (t[2] * t[7] * t[10] * t[11])


def test_inverse_ansatz_other_schemes():
    # seed schemes put every bullet at the end; the move-walked ones (three
    # per S_3 cell, then open-cell walks at n = 4 and 5) mix them in
    rng = random.Random(38)
    cases = []
    for u_str, v_str in (("321", "321"), ("213", "312"), ("231", "123")):
        sch = seed_scheme(Permutation.from_string(u_str),
                          Permutation.from_string(v_str))
        cases += [(sch, rand_vals(sch.length, rng)) for _ in range(5)]
    walked = [random_walk(seed_scheme(u, v), rng.randrange(1, 12), rng)
              for u in all_permutations(3) for v in all_permutations(3)
              for _ in range(3)]
    for n, walks in ((4, 4), (5, 2)):
        w0 = Permutation.longest_element(n)
        walked += [random_walk(seed_scheme(w0, w0), 30, rng)
                   for _ in range(walks)]
    for sch in walked:
        vals = rand_vals(sch.length, rng)
        cases += [(sch, vals), (sch, one_negated(vals, rng))]
    for sch, t in cases:
        xp = twist(product(sch, t), *sch.cell_type)
        values = chamber_values_from_parameters(sch, t)
        assert list(values) == [c for level in build_arrangement(sch)
                                for c in level]
        for chamber, val in values.items():
            assert minor(xp, chamber.row_set, chamber.col_set) == val


def test_inverse_ansatz_names_a_zero_parameter():
    sch = parse_scheme(RUNNING)
    t = rand_vals(13, random.Random(44))
    for position in range(1, 14):
        zeroed = list(t)
        zeroed[position - 1] = 0
        message = f"parameter at position {position} is zero but required"
        with pytest.raises(ZeroParameter, match=message):
            chamber_values_from_parameters(sch, zeroed)


@pytest.mark.parametrize("count", [3, 5])
def test_inverse_ansatz_checks_the_parameter_count(count):
    with pytest.raises(ArityMismatch,
                       match=f"{count} parameters for a length-4 scheme"):
        chamber_values_from_parameters(parse_scheme("h1 f1 h2 e1"),
                                       range(1, count + 1))


def random_walk(scheme, steps, rng):
    for _ in range(steps):
        scheme = apply_move(scheme, rng.choice(available_moves(scheme)))
    return scheme


def outcome(fn, scheme, x):
    try:
        return fn(scheme, x)
    except (ZeroMinor, WrongCell, DecompositionFailure) as exc:
        return type(exc)


def chamber_minors_nonzero(scheme, x):
    try:
        xp = twist(x, *scheme.cell_type)
    except (WrongCell, DecompositionFailure):
        return False
    return all(minor(xp, c.row_set, c.col_set) != 0
               for level in build_arrangement(scheme) for c in level)


def assert_agrees_with_reference(scheme, x):
    got = outcome(solve, scheme, x)
    assert got == outcome(reference_solve, scheme, x)
    if chamber_minors_nonzero(scheme, x):
        assert isinstance(got, list)
    else:
        assert got in (ZeroMinor, WrongCell, DecompositionFailure)
    return got


def one_negated(vals, rng):
    vals = list(vals)
    k = rng.randrange(len(vals))
    vals[k] = -vals[k]
    return vals


def test_solve_matches_reference_every_s3_cell():
    rng = random.Random(39)
    schemes = []
    for u in all_permutations(3):
        for v in all_permutations(3):
            seed = seed_scheme(u, v)
            schemes += [random_walk(seed, rng.randrange(1, 12), rng)
                        for _ in range(3)]
    for sch in schemes:
        vals = rand_vals(sch.length, rng)
        for t in (vals, one_negated(vals, rng)):
            assert assert_agrees_with_reference(sch, product(sch, t)) == t


def test_solve_matches_reference_off_the_image():
    # small integer matrices solved along a scheme of their own cell, where
    # some chamber minor often vanishes, and along one of another cell
    rng = random.Random(40)
    outcomes = set()
    for _ in range(60):
        x = Matrix([[rng.randint(-1, 2) for _ in range(3)] for _ in range(3)])
        if det(x) == 0:
            continue
        u, v = double_cell_of(x)
        sch = random_walk(seed_scheme(u, v), 6, rng)
        got = assert_agrees_with_reference(sch, x)
        outcomes.add(got if isinstance(got, type) else list)
        other = random_walk(seed_scheme(v, u), 3, rng)
        if (v, u) != (u, v):
            assert assert_agrees_with_reference(other, x) is WrongCell
    assert {list, ZeroMinor} <= outcomes


@pytest.mark.parametrize("n, walks", [(4, 4), (5, 2)])
def test_solve_matches_reference_open_cells(n, walks):
    rng = random.Random(41 + n)
    w0 = Permutation.longest_element(n)
    for _ in range(walks):
        sch = random_walk(seed_scheme(w0, w0), 30, rng)
        vals = rand_vals(sch.length, rng)
        for t in (vals, one_negated(vals, rng)):
            assert assert_agrees_with_reference(sch, product(sch, t)) == t


def test_solve_matches_reference_on_a_sample_of_gl4_cells():
    # a seeded sample of 24 of the 575 non-open GL_4 cells, not all of
    # them; each seed scheme is walked 10 moves so bullets sit mid-word
    rng = random.Random(45)
    w0 = Permutation.longest_element(4)
    cells = [(u, v) for u in all_permutations(4) for v in all_permutations(4)
             if (u, v) != (w0, w0)]
    for u, v in rng.sample(cells, 24):
        seed = seed_scheme(u, v)
        sch = random_walk(seed, 10, rng)
        vals = rand_vals(sch.length, rng)
        for t in (vals, one_negated(vals, rng)):
            assert assert_agrees_with_reference(sch, product(sch, t)) == t
            assert double_cell_of(product(seed, t)) == (u, v)


def test_solve_evaluates_each_chamber_minor_once(monkeypatch):
    calls = []
    original = tpfact.solver.chamber_minor

    def counted(xprime, chamber):
        calls.append(chamber)
        return original(xprime, chamber)

    monkeypatch.setattr(tpfact.solver, "chamber_minor", counted)
    rng = random.Random(42)
    w0 = Permutation.longest_element(5)
    for sch in (parse_scheme(RUNNING), seed_scheme(w0, w0),
                parse_scheme("h1 f1 h2 e1")):
        calls.clear()
        vals = rand_vals(sch.length, rng)
        assert solve(sch, product(sch, vals)) == vals
        assert len(calls) == len(set(calls)) == sch.length
        assert all(c.level > 0 for c in calls)
