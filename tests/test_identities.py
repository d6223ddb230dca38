import random
from collections import Counter
from fractions import Fraction

import pytest

from reference import all_permutations, reference_exchange_certificate
from tpfact.errors import (NotAnExchange, PreconditionViolated, TooMuchWork,
                           ValidationError)
from tpfact.identities import (
    MAX_FUZZ_WORK,
    check_dodgson,
    check_plucker,
    dodgson_terms,
    exchange_certificate,
    fuzz,
    plucker_terms,
)
from tpfact.linalg import Matrix, minor
from tpfact.permutations import Permutation
from tpfact.schemes import (Move, apply_move, available_moves,
                            enumerate_isotopy_types, parse_scheme, seed_scheme)


def rand_matrix(n, rng):
    return Matrix(tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(n)) for _ in range(n)))


def test_plucker_holds():
    rng = random.Random(50)
    for _ in range(20):
        x = rand_matrix(4, rng)
        assert check_plucker(x, (2,), (), 1, 3, 4, 3)
        assert check_plucker(x, (2,), (), 1, 3, 4, 3, transposed=True)
        assert check_plucker(x, (1, 4), (2,), 1, 3, 4, 2)


def test_dodgson_holds():
    rng = random.Random(51)
    for _ in range(20):
        x = rand_matrix(4, rng)
        assert check_dodgson(x, (), (), 1, 2, 1, 2)
        assert check_dodgson(x, (2,), (3,), 1, 4, 1, 4)


def test_plucker_term_structure():
    groups = plucker_terms((2,), (), 1, 3, 4, 3)
    (lhs, rhs1, rhs2) = groups
    assert lhs == (((2, 3), (1, 4)), ((2,), (3,)))
    assert rhs1 == (((2, 3), (1, 3)), ((2,), (4,)))
    assert rhs2 == (((2, 3), (3, 4)), ((2,), (1,)))


def test_dodgson_term_structure():
    (lhs, rhs1, rhs2) = dodgson_terms((), (), 1, 2, 1, 2)
    assert lhs == (((1,), (1,)), ((2,), (2,)))
    assert rhs1 == (((1,), (2,)), ((2,), (1,)))
    assert rhs2 == (((), ()), ((1, 2), (1, 2)))


def test_plucker_preconditions():
    with pytest.raises(PreconditionViolated):
        plucker_terms((), (), 3, 1, 4, 2)  # i, j, k out of order
    with pytest.raises(PreconditionViolated):
        plucker_terms((), (1,), 1, 2, 3, 4)  # L meets {i, j, k}
    with pytest.raises(PreconditionViolated):
        plucker_terms((2,), (), 1, 3, 4, 2)  # p already in I


def test_dodgson_preconditions():
    with pytest.raises(PreconditionViolated):
        dodgson_terms((), (), 2, 1, 1, 2)
    with pytest.raises(PreconditionViolated):
        dodgson_terms((1,), (), 1, 2, 1, 2)


def test_certificate_braid3_gl3():
    sch = parse_scheme("e1 e2 e1 f1 f2 f1 h1 h2 h3")
    cert = exchange_certificate(sch, Move("braid3", 1))
    assert cert.identity == "plucker-cols"
    assert set(cert.lhs) == set(cert.exchanged) == {
        ((1,), (2,)), ((1, 2), (1, 3))}
    assert cert.rhs1 == (((1, 2), (1, 2)), ((1,), (3,)))
    assert cert.rhs2 == (((1, 2), (2, 3)), ((1,), (1,)))
    rng = random.Random(52)
    for _ in range(10):
        assert cert.holds_on(rand_matrix(3, rng))


def test_certificate_mixed2_gl2():
    sch = parse_scheme("h1 e1 f1 h2")
    cert = exchange_certificate(sch, Move("mixed2", 2))
    assert cert.identity == "dodgson"
    assert set(cert.exchanged) == {((1,), (1,)), ((2,), (2,))}
    assert cert.rhs2 == (((), ()), ((1, 2), (1, 2)))
    rng = random.Random(53)
    for _ in range(10):
        assert cert.holds_on(rand_matrix(2, rng))


def test_certificates_on_every_exchange_move():
    # walk a few schemes of the open GL_3 cell; every braid3/mixed2 move
    # must come with a valid subtraction-free exchange identity
    rng = random.Random(54)
    w0 = Permutation.longest_element(3)
    scheme = seed_scheme(w0, w0)
    seen = 0
    frontier = [scheme]
    visited = {scheme.word}
    while frontier and seen < 40:
        sch = frontier.pop()
        for mv in available_moves(sch):
            out = apply_move(sch, mv)
            if out.word not in visited:
                visited.add(out.word)
                frontier.append(out)
            if mv.kind == "trivial2":
                with pytest.raises(NotAnExchange):
                    exchange_certificate(sch, mv)
                continue
            before = set(sch_family(sch))
            after = set(sch_family(out))
            if before == after:
                continue
            cert = exchange_certificate(sch, mv)
            assert set(cert.exchanged) == before ^ after
            assert set(cert.lhs) == set(cert.exchanged)
            for _ in range(3):
                assert cert.holds_on(rand_matrix(3, rng))
            seen += 1
    assert seen >= 40


def sch_family(sch):
    from tpfact.schemes import chamber_minor_family
    return chamber_minor_family(sch)


def test_certificate_gives_subtraction_free_update():
    # the replaced minor equals (rhs1 + rhs2) / old partner
    rng = random.Random(55)
    sch = parse_scheme("e1 e2 e1 f1 f2 f1 h1 h2 h3")
    cert = exchange_certificate(sch, Move("braid3", 1))
    old, new = cert.exchanged
    for _ in range(5):
        x = rand_matrix(3, rng)
        old_val = minor(x, *old)
        if old_val == 0:
            continue
        prod1 = minor(x, *cert.rhs1[0]) * minor(x, *cert.rhs1[1])
        prod2 = minor(x, *cert.rhs2[0]) * minor(x, *cert.rhs2[1])
        assert minor(x, *new) == (prod1 + prod2) / old_val


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def test_exchange_certificate_matches_reference():
    # every move of every isotopy representative of the 36 GL_3 cells,
    # then of every scheme on 30-move walks from seeds of random GL_4 cells
    schemes = [node.scheme for u in all_permutations(3)
               for v in all_permutations(3)
               for node in enumerate_isotopy_types(u, v).nodes]
    rng = random.Random(57)
    perms = all_permutations(4)
    for _ in range(20):
        sch = seed_scheme(rng.choice(perms), rng.choice(perms))
        for _ in range(30):
            sch = apply_move(sch, rng.choice(available_moves(sch)))
            schemes.append(sch)
    seen = Counter()
    for sch in schemes:
        for mv in available_moves(sch):
            got = outcome(exchange_certificate, sch, mv)
            assert got == outcome(reference_exchange_certificate, sch, mv)
            seen[got[0] if isinstance(got[0], str) else mv.kind] += 1
    assert min(seen[name] for name in
               ("plucker-cols", "plucker-rows", "dodgson", "trivial2")) > 50


def test_fuzz_deterministic_and_clean():
    r1 = fuzz(4, 50, 7)
    r2 = fuzz(4, 50, 7)
    assert r1 == r2
    assert r1 == {"n": 4, "trials": 50, "seed": 7, "failures": []}
    r3 = fuzz(4, 50, 8)
    assert r3["failures"] == []


def test_fuzz_needs_room_for_three_columns():
    with pytest.raises(PreconditionViolated):
        fuzz(2, 10, 0)


def test_fuzz_bounds_its_work_before_the_first_trial():
    # every fuzz run in the repo stays admitted: --n 4..8 at 1000 trials
    assert 1000 * 8**4 <= MAX_FUZZ_WORK
    for n, trials in ((80, 1000), (3, 10**8), (10**9, 1),
                      (5, MAX_FUZZ_WORK // 5**4 + 1)):
        with pytest.raises(TooMuchWork, match=f"= {trials * n**4:,} exceeds"):
            fuzz(n, trials, 0)
    assert issubclass(TooMuchWork, ValidationError)
