import random
from fractions import Fraction

import pytest

from reference import all_permutations, elementary, reference_commute_h
from tpfact.errors import (ArityMismatch, BadToken, MoveNotApplicable,
                           NotReducedE, NotReducedF, PreconditionError,
                           ValidationError, ZeroDiagonal)
from tpfact.linalg import Matrix
from tpfact.product_map import commute_h, product
from tpfact.schemes import (FactorizationScheme, Move, SchemeSymbol,
                            apply_move, available_moves, parse_scheme,
                            seed_scheme)

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def test_elementary_matrices():
    t = Fraction(5, 2)
    e = elementary(3, SchemeSymbol("E", 1), t)
    assert e.rows == ((1, t, 0), (0, 1, 0), (0, 0, 1))
    f = elementary(3, SchemeSymbol("F", 2), t)
    assert f.rows == ((1, 0, 0), (0, 1, 0), (0, t, 1))
    h = elementary(3, SchemeSymbol("H", 2), t)
    assert h.rows == ((1, 0, 0), (0, t, 0), (0, 0, 1))


def test_product_left_to_right():
    sch = parse_scheme("h1 f1 h2 e1")
    t = [Fraction(3), Fraction(2), Fraction(1, 3), Fraction(2)]
    x = product(sch, t)
    assert x.rows == ((3, 6), (2, Fraction(13, 3)))


def test_product_arity():
    sch = parse_scheme("h1 f1 h2 e1")
    with pytest.raises(ArityMismatch):
        product(sch, [Fraction(1)] * 3)
    with pytest.raises(ZeroDiagonal):
        product(sch, [Fraction(1), Fraction(2), Fraction(0), Fraction(3)])
    # a raw scheme skips validation, so product must reject the level
    raw = FactorizationScheme(2, (SchemeSymbol("H", 1), SchemeSymbol("E", 2),
                                  SchemeSymbol("H", 2)))
    with pytest.raises(BadToken):
        product(raw, [Fraction(1)] * 3)
    # a zero bullet is only looked at once the scheme is valid
    with pytest.raises(BadToken):
        product(raw, [Fraction(0)] * 3)
    # product validates the whole scheme: reducedness and index types too
    for text, error in (("e1 e1 h1 h2", NotReducedE), ("f1 f1 h1 h2", NotReducedF)):
        bad = FactorizationScheme(2, tuple(map(SchemeSymbol.parse, text.split())))
        with pytest.raises(error):
            product(bad, [Fraction(1)] * 4)
    bad = FactorizationScheme(2, (SchemeSymbol("H", True), SchemeSymbol("H", 2)))
    with pytest.raises(BadToken):
        product(bad, [Fraction(1)] * 2)
    # the count is checked first, with one message for every caller
    for call in (lambda: product(sch, [0] * 3), lambda: product(raw, [0] * 4),
                 lambda: commute_h(sch, [0] * 5, 1)):
        with pytest.raises(ArityMismatch, match="parameters for a length-"):
            call()


@pytest.mark.parametrize("position", [True, 1.0, "1", None])
def test_move_positions_must_be_ints(position):
    # True and 1.0 equal 1, but only an int names a word position
    sch = parse_scheme("h1 f1 h2 e1")
    with pytest.raises(BadToken, match="has no right neighbor"):
        commute_h(sch, [Fraction(1)] * 4, position)
    with pytest.raises(MoveNotApplicable, match="does not apply"):
        apply_move(sch, Move("trivial2", position))
    assert str(apply_move(sch, Move("trivial2", 1))) == "f1 h1 h2 e1"


def rand_vals(length, rng):
    return [Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(length)]


def test_commute_h_preserves_product_everywhere():
    rng = random.Random(10)
    sch = parse_scheme(RUNNING)
    vals = rand_vals(13, rng)
    x = product(sch, vals)
    applied = 0
    for pos in range(1, sch.length):
        a, b = sch.word[pos - 1], sch.word[pos]
        if a.kind != "H" and b.kind != "H":
            with pytest.raises(BadToken):
                commute_h(sch, vals, pos)
            continue
        out_sch, out_vals = commute_h(sch, vals, pos)
        assert product(out_sch, out_vals) == x
        assert out_sch.word[pos - 1] == b and out_sch.word[pos] == a
        applied += 1
    assert applied > 0


def test_commute_h_rule_values():
    # moving h_j across e_i rescales by b when j = i+1 and 1/b when j = i
    a, b = Fraction(5), Fraction(3)
    sch = parse_scheme("e1 h1 h2")
    out_sch, out_vals = commute_h(sch, [a, b, Fraction(1)], 1)
    assert str(out_sch) == "h1 e1 h2"
    assert out_vals[0] == b and out_vals[1] == a / b

    sch = parse_scheme("e1 h2 h1")
    out_sch, out_vals = commute_h(sch, [a, b, Fraction(1)], 1)
    assert str(out_sch) == "h2 e1 h1"
    assert out_vals[0] == b and out_vals[1] == a * b

    sch = parse_scheme("f1 h1 h2")
    out_sch, out_vals = commute_h(sch, [a, b, Fraction(1)], 1)
    assert str(out_sch) == "h1 f1 h2"
    assert out_vals[0] == b and out_vals[1] == a * b

    sch = parse_scheme("h1 f1 h2")
    out_sch, out_vals = commute_h(sch, [b, a, Fraction(1)], 1)
    assert str(out_sch) == "f1 h1 h2"
    assert out_vals[0] == a / b and out_vals[1] == b

    sch = parse_scheme("h1 h2 e1")
    out_sch, out_vals = commute_h(sch, [b, Fraction(7), a], 1)
    assert str(out_sch) == "h2 h1 e1"
    assert out_vals[0] == Fraction(7) and out_vals[1] == b


def test_commute_h_zero_scaling():
    sch = parse_scheme("e1 h1 h2")
    with pytest.raises(ZeroDiagonal):
        commute_h(sch, [Fraction(1), Fraction(0), Fraction(1)], 1)


def test_commute_h_distant_index_keeps_values():
    sch = parse_scheme("e1 h3 h1 h2")
    vals = [Fraction(4), Fraction(9), Fraction(1), Fraction(1)]
    out_sch, out_vals = commute_h(sch, vals, 1)
    assert str(out_sch) == "h3 e1 h1 h2"
    assert out_vals[:2] == [Fraction(9), Fraction(4)]
    assert product(out_sch, out_vals) == product(sch, vals)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValidationError, PreconditionError) as exc:
        return type(exc), str(exc)


def test_commute_h_matches_case_by_case_reference():
    # every position 0..l, the invalid ones included, of move-walked
    # schemes in random cells, at signed parameters with some zeros
    rng = random.Random(12)
    applied = 0
    for n in (2, 3, 4):
        perms = all_permutations(n)
        for _ in range(40):
            sch = seed_scheme(rng.choice(perms), rng.choice(perms))
            for _ in range(rng.randint(0, 40)):
                sch = apply_move(sch, rng.choice(available_moves(sch)))
            vals = [Fraction(rng.randint(-9, 9) * (rng.random() > 0.1),
                             rng.randint(1, 5)) for _ in range(sch.length)]
            for pos in range(sch.length + 1):
                got = outcome(commute_h, sch, vals, pos)
                assert got == outcome(reference_commute_h, sch, vals, pos)
                applied += isinstance(got[0], FactorizationScheme)
    assert applied > 300


def test_identity_product():
    sch = parse_scheme("h1 h2")
    assert product(sch, [Fraction(1), Fraction(1)]) == Matrix.identity(2)
