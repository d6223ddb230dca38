import itertools
import math
import random

import pytest

import reference
from reference import all_permutations, reduced_words
from tpfact import schemes
from tpfact.errors import (
    BadHPart,
    BadToken,
    MoveNotApplicable,
    NotReducedE,
    NotReducedF,
    SizeMismatch,
    TooMuchWork,
    ValidationError,
)
from tpfact.identities import exchange_certificate
from tpfact.linalg import Matrix
from tpfact.permutations import Permutation
from tpfact.positivity import chamber_criterion
from tpfact.product_map import commute_h
from tpfact.render import _line_states
from tpfact.schemes import (
    BRAID3,
    E,
    F,
    H,
    MAX_WALK_WORDS,
    MIXED2,
    TRIVIAL2,
    FactorizationScheme,
    Move,
    SchemeSymbol,
    apply_move,
    available_moves,
    build_arrangement,
    chamber_minor_family,
    enumerate_isotopy_types,
    isotopy_key,
    parse_scheme,
    seed_scheme,
    walk_word_count,
    _crossing_key,
    _labels,
)
from tpfact.solver import solve

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def all_schemes_of_type(u, v):
    # oracle: every shuffle of a v-word (E), a u-word (F) and an h-order
    n = u.n
    le, lf = v.length(), u.length()
    l = n + le + lf
    out = []
    for ew in sorted(reduced_words(v)):
        for fw in sorted(reduced_words(u)):
            for horder in itertools.permutations(range(1, n + 1)):
                for epos in itertools.combinations(range(l), le):
                    rest = [p for p in range(l) if p not in set(epos)]
                    for fpos in itertools.combinations(rest, lf):
                        word = [None] * l
                        for k, p in enumerate(epos):
                            word[p] = SchemeSymbol(E, ew[k])
                        for k, p in enumerate(fpos):
                            word[p] = SchemeSymbol(F, fw[k])
                        hs = iter(horder)
                        for p in range(l):
                            if word[p] is None:
                                word[p] = SchemeSymbol(H, next(hs))
                        out.append(FactorizationScheme.make(n, tuple(word)))
    return out


def chambers(scheme):
    # every chamber of the arrangement, by level, then left to right
    return [c for level in build_arrangement(scheme) for c in level]


def reference_key(scheme):
    # the isotopy key read off a full arrangement
    return tuple(sorted(c.sets for c in chambers(scheme)))


def reference_enumerate(u, v):
    # the move-graph walk that builds a scheme for every neighbour from the
    # reference move predicates and keys it through build_arrangement;
    # returns the nodes as (key, family, scheme text) and the edges as
    # index pairs
    start = seed_scheme(u, v)
    word_keys = {}
    key_info = {}
    edges = set()

    def key_of(scheme):
        key = word_keys.get(scheme.word)
        if key is None:
            key = reference_key(scheme)
            word_keys[scheme.word] = key
            if key not in key_info:
                key_info[key] = (
                    sorted(reference.chamber_minor_family(scheme)), scheme)
        return key

    key_of(start)
    frontier = [start]
    while frontier:
        scheme = frontier.pop()
        key = word_keys[scheme.word]
        for kind, p in reference.moves(scheme.word):
            neighbor = FactorizationScheme(
                u.n, reference.moved_word(scheme.word, kind, p))
            fresh = neighbor.word not in word_keys
            nkey = key_of(neighbor)
            if kind in (BRAID3, MIXED2) and nkey != key:
                edges.add(frozenset((key, nkey)))
            if fresh:
                frontier.append(neighbor)
    nodes = [(key, tuple(fam), str(sch))
             for key, (fam, sch) in sorted(key_info.items())]
    index = {node[0]: k for k, node in enumerate(nodes)}
    edge_idx = {tuple(sorted((index[a], index[b]))) for a, b in
                (tuple(e) for e in edges)}
    return nodes, edge_idx


def scheme_count(u, v):
    n, le, lf = u.n, v.length(), u.length()
    l = n + le + lf
    shuffles = (math.factorial(l)
                // (math.factorial(le) * math.factorial(lf) * math.factorial(n)))
    return (len(reduced_words(v)) * len(reduced_words(u))
            * math.factorial(n) * shuffles)


def test_parse_and_str_round_trip():
    sch = parse_scheme(RUNNING)
    assert str(sch) == RUNNING
    assert sch.n == 4
    assert sch.length == 13
    assert sch.word[0] == SchemeSymbol(F, 2)
    assert sch.word[12] == SchemeSymbol(F, 1)


@pytest.mark.parametrize("text", ["", " \t\n"], ids=["empty", "blank"])
def test_parse_refuses_an_empty_scheme(text):
    with pytest.raises(BadToken, match="empty scheme"):
        parse_scheme(text)


def test_running_example_type():
    sch = parse_scheme(RUNNING)
    assert str(sch.u) == "4312"
    assert str(sch.v) == "4213"
    assert sch.cell_type == (Permutation.from_string("4312"),
                             Permutation.from_string("4213"))


def test_h_positions():
    sch = parse_scheme(RUNNING)
    assert [sch.h_position(j) for j in (1, 2, 3, 4)] == [8, 12, 3, 11]
    with pytest.raises(BadHPart, match="no h5 in scheme"):
        sch.h_position(5)


def test_length_formula():
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            assert sch.length == 3 + u.length() + v.length()


def test_validation_errors():
    with pytest.raises(BadHPart):
        parse_scheme("e1 f1")
    with pytest.raises(BadHPart):
        parse_scheme("h1 h1 e1")
    with pytest.raises(BadToken):
        parse_scheme("h1 g2")
    with pytest.raises(BadToken):
        parse_scheme("h1 e3")
    # ASCII digits only, the whole token, and no more digits than int() takes
    for token in ("h\u0661", "e\uff11", "h1\n", "h" + "1" * 5000):
        with pytest.raises(BadToken):
            SchemeSymbol.parse(token)
    with pytest.raises(NotReducedE):
        parse_scheme("h1 h2 e1 e1")
    with pytest.raises(NotReducedF):
        parse_scheme("h1 h2 f1 f1")
    with pytest.raises(BadToken, match="unknown symbol kind 'X'"):
        FactorizationScheme.make(
            2, [SchemeSymbol("X", 1), SchemeSymbol(H, 1), SchemeSymbol(H, 2)])


@pytest.mark.parametrize("symbol", [SchemeSymbol(E, "1"), SchemeSymbol(F, 1.0),
                                    SchemeSymbol(H, None), SchemeSymbol(E, True)])
def test_validation_names_a_non_integer_index(symbol):
    word = [symbol, SchemeSymbol(H, 1), SchemeSymbol(H, 2)]
    # True and 1.0 equal and hash as 1: the int twin's cached verdict
    # must not pass them
    twin = [symbol._replace(index=1)] + word[1:]
    if twin == word:
        FactorizationScheme.make(2, twin)
    with pytest.raises(BadToken, match="non-integer index") as info:
        FactorizationScheme.make(2, word)
    assert repr(symbol) in str(info.value)


def test_validation_refuses_a_bool_h_index():
    # True == 1 would complete the h-part, and print as hTrue, which
    # parse_scheme refuses, even with the verdict on h1 h2 cached
    FactorizationScheme.make(2, (SchemeSymbol(H, 1), SchemeSymbol(H, 2)))
    with pytest.raises(BadToken, match="non-integer index"):
        FactorizationScheme.make(2, (SchemeSymbol(H, True), SchemeSymbol(H, 2)))


@pytest.mark.parametrize("n, word", [(0, ()), (-1, ()), (True, ("h1",)),
                                     (2.0, ("h1", "h2"))])
def test_make_refuses_other_sizes(n, word):
    with pytest.raises(ValidationError, match="size must be an int >= 1"):
        FactorizationScheme.make(n, map(SchemeSymbol.parse, word))


@pytest.mark.parametrize("text, error", [("e1 e1 h1 h2", NotReducedE),
                                         ("e1 h1 h1", BadHPart)])
@pytest.mark.parametrize("read", [
    chamber_minor_family,
    lambda s: apply_move(s, Move(TRIVIAL2, 1)),
    lambda s: commute_h(s, [1] * s.length, 1),
    lambda s: exchange_certificate(s, Move(MIXED2, 1)),
    lambda s: solve(s, Matrix.identity(3)),
    lambda s: chamber_criterion(s, Matrix.identity(3)),
], ids=["chamber_minor_family", "apply_move", "commute_h",
        "exchange_certificate", "solve", "chamber_criterion"])
def test_readers_of_a_raw_scheme_check_it(read, text, error):
    # a scheme built without make is checked where its cell is read, and
    # before the 3x3 matrix's size is compared with the scheme's
    with pytest.raises(error):
        read(FactorizationScheme(2, tuple(map(SchemeSymbol.parse, text.split()))))


def test_a_list_word_reads_as_its_tuple():
    # the cache key is the word as a tuple, so a raw list word is checked
    # and moved like its tuple
    word = [SchemeSymbol.parse(t) for t in "h1 e1 h2".split()]
    raw = FactorizationScheme(2, word)
    assert raw.validate() == FactorizationScheme.make(2, word).validate()
    assert str(apply_move(raw, Move(TRIVIAL2, 1))) == "e1 h1 h2"


def test_running_example_chambers():
    levels = build_arrangement(parse_scheme(RUNNING))
    lv1 = [(c.sets, c.type) for c in levels[1]]
    assert lv1 == [
        ((((3,), (1,))), "EE"),
        ((((3,), (2,))), "EF"),
        ((((2,), (2,))), "FE"),
        ((((2,), (4,))), "EF"),
        ((((1,), (4,))), "FF"),
    ]
    lv2 = [(c.sets, c.type) for c in levels[2]]
    assert lv2 == [
        ((((3, 4), (1, 2))), "EF"),
        ((((2, 3), (1, 2))), "FE"),
        ((((2, 3), (2, 4))), "EF"),
        ((((1, 2), (2, 4))), "FF"),
    ]
    lv3 = [c.sets for c in levels[3]]
    assert lv3 == [
        ((2, 3, 4), (1, 2, 3)),
        ((1, 2, 3), (1, 2, 3)),
        ((1, 2, 3), (1, 2, 4)),
    ]


def test_border_chambers():
    sch = parse_scheme(RUNNING)
    levels = build_arrangement(sch)
    [bottom], [top] = levels[0], levels[4]
    assert (bottom.start, bottom.end, bottom.type) == (0, 14, "EF")
    assert bottom.sets == ((), ())
    assert top.sets == ((1, 2, 3, 4), (1, 2, 3, 4))
    # one chamber per word symbol plus the empty bottom chamber
    assert len(chambers(sch)) == sch.length + 1


def test_running_example_family():
    fam = chamber_minor_family(parse_scheme(RUNNING))
    assert fam == [
        ((1,), (3,)), ((1,), (2,)), ((3,), (2,)), ((3,), (1,)), ((4,), (1,)),
        ((1, 2), (2, 3)), ((1, 3), (2, 3)), ((1, 3), (1, 2)), ((3, 4), (1, 2)),
        ((1, 2, 3), (2, 3, 4)), ((1, 3, 4), (2, 3, 4)), ((1, 3, 4), (1, 2, 3)),
        ((1, 2, 3, 4), (1, 2, 3, 4)),
    ]


def test_gl2_families_depend_on_crossing_order():
    fam_f_first = chamber_minor_family(parse_scheme("h1 f1 h2 e1"))
    fam_e_first = chamber_minor_family(parse_scheme("h1 e1 h2 f1"))
    assert set(fam_f_first) == {
        ((1,), (2,)), ((2,), (2,)), ((2,), (1,)), ((1, 2), (1, 2))}
    assert set(fam_e_first) == {
        ((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((1, 2), (1, 2))}


def test_crossing_lines_and_bullets():
    # line states just before a symbol name the lines it touches
    e_states, f_states = _line_states(4, parse_scheme(RUNNING).word)
    # the e1 crossing at position 2 joins E-lines 1 and 2
    assert e_states[1][0:2] == (1, 2)
    assert e_states[2][0:2] == (2, 1)
    # the h3 bullet at position 3 lies on E-line 3 and F-line 4
    assert e_states[2][2] == e_states[3][2] == 3
    assert f_states[2][2] == f_states[3][2] == 4


def test_trivial2_moves():
    sch = parse_scheme("e1 f2 h1 h2 h3")
    out = apply_move(sch, Move("trivial2", 1))
    assert str(out) == "f2 e1 h1 h2 h3"
    assert isotopy_key(out) == isotopy_key(sch)
    out2 = apply_move(sch, Move("trivial2", 3))
    assert str(out2) == "e1 f2 h2 h1 h3"
    assert isotopy_key(out2) == isotopy_key(sch)


def test_trivial2_rejects_close_indices():
    # same-kind neighbors need |i-j| >= 2; same-index e/f is the mixed move
    sch = parse_scheme("h1 h2 h3 h4 e1 e2")
    with pytest.raises(MoveNotApplicable):
        apply_move(sch, Move("trivial2", 5))
    with pytest.raises(MoveNotApplicable):
        apply_move(parse_scheme("e1 f1 h1 h2"), Move("trivial2", 1))
    far = parse_scheme("h1 h2 h3 h4 e1 e3")
    assert str(apply_move(far, Move("trivial2", 5))) == "h1 h2 h3 h4 e3 e1"


def test_apply_move_refuses_an_unknown_kind():
    sch = parse_scheme("e1 f2 h1 h2 h3")
    with pytest.raises(MoveNotApplicable, match="unknown move kind 'swap'"):
        apply_move(sch, Move("swap", 1))


def test_braid3_move():
    sch = parse_scheme("e1 e2 e1 f1 f2 f1 h1 h2 h3")
    out = apply_move(sch, Move("braid3", 1))
    assert str(out) == "e2 e1 e2 f1 f2 f1 h1 h2 h3"
    with pytest.raises(MoveNotApplicable):
        apply_move(sch, Move("braid3", 2))
    with pytest.raises(MoveNotApplicable):
        apply_move(sch, Move("braid3", 3))


def test_mixed2_move():
    sch = parse_scheme("h1 e1 f1 h2")
    out = apply_move(sch, Move("mixed2", 2))
    assert str(out) == "h1 f1 e1 h2"
    assert str(apply_move(out, Move("mixed2", 2))) == str(sch)


def test_exchange_moves_swap_one_family_member():
    sch = parse_scheme("e1 e2 e1 f1 f2 f1 h1 h2 h3")
    for mv in available_moves(sch):
        out = apply_move(sch, mv)
        before = sorted(chamber_minor_family(sch))
        after = sorted(chamber_minor_family(out))
        if mv.kind == "trivial2":
            assert before == after
        else:
            diff = set(before) ^ set(after)
            assert len(diff) == 2


def test_available_moves_positions():
    sch = parse_scheme("h1 e1 f1 h2")
    kinds = {(m.kind, m.position) for m in available_moves(sch)}
    assert kinds == {("trivial2", 1), ("mixed2", 2), ("trivial2", 3)}


def test_moves_preserve_type():
    sch = parse_scheme(RUNNING)
    for mv in available_moves(sch):
        out = apply_move(sch, mv)
        assert out.cell_type == sch.cell_type


def test_seed_scheme_every_s3_cell():
    for u in all_permutations(3):
        for v in all_permutations(3):
            sch = seed_scheme(u, v)
            assert sch.cell_type == (u, v)
    # the open GL_7 cell: 21 + 21 crossings, too many words to enumerate
    w0 = Permutation.longest_element(7)
    sch = seed_scheme(w0, w0)
    assert sch.cell_type == (w0, w0)
    for kind in (E, F):
        assert (tuple(s.index for s in sch.word if s.kind == kind)
                == w0.lex_min_reduced_word())


def test_enumerate_gl2_open_cell():
    w0 = Permutation.longest_element(2)
    graph = enumerate_isotopy_types(w0, w0)
    assert len(graph.nodes) == 2
    assert graph.is_connected()
    families = {tuple(sorted(node.family)) for node in graph.nodes}
    assert families == {
        tuple(sorted({((1,), (2,)), ((2,), (2,)), ((2,), (1,)), ((1, 2), (1, 2))})),
        tuple(sorted({((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((1, 2), (1, 2))})),
    }


def test_enumerate_identity_cell():
    e3 = Permutation.identity(3)
    graph = enumerate_isotopy_types(e3, e3)
    assert len(graph.nodes) == 1
    assert graph.edges == set()
    node = graph.nodes[0]
    assert sorted(node.family) == [
        ((1,), (1,)), ((1, 2), (1, 2)), ((1, 2, 3), (1, 2, 3))]


def test_enumerate_matches_shuffle_oracle_small():
    # brute-force every scheme word and quotient by the isotopy key
    for u_str, v_str in [("21", "21"), ("213", "132"), ("231", "231"),
                         ("321", "213")]:
        u = Permutation.from_string(u_str)
        v = Permutation.from_string(v_str)
        schemes = all_schemes_of_type(u, v)
        assert len(schemes) == scheme_count(u, v)
        keys = {isotopy_key(s) for s in schemes}
        graph = enumerate_isotopy_types(u, v)
        assert {node.key for node in graph.nodes} == keys


def assert_chambers_tile_levels(scheme, levels):
    # levels[k] holds the level-k chambers, left to right; each level's
    # spans tile [0, l+1], bounded by the symbols at their ends (E left
    # border, F right border)
    l = scheme.length
    assert len(levels) == scheme.n + 1
    kind_at = [E] + [sym.kind for sym in scheme.word] + [F]
    for level, row in enumerate(levels):
        assert {c.level for c in row} == {level}
        spans = [(c.start, c.end) for c in row]
        ends = [a for a, _ in spans[1:]] + [l + 1]
        assert spans[0][0] == 0 and [b for _, b in spans] == ends
        for c in row:
            assert (c.left_kind, c.right_kind) == (kind_at[c.start],
                                                   kind_at[c.end])


@pytest.fixture(scope="module")
def open_gl3_schemes():
    w0 = Permutation.longest_element(3)
    return all_schemes_of_type(w0, w0)


def test_enumerate_matches_shuffle_oracle_open_gl3(open_gl3_schemes):
    w0 = Permutation.longest_element(3)
    schemes = open_gl3_schemes
    assert len(schemes) == scheme_count(w0, w0) == 40320
    keys = [isotopy_key(s) for s in schemes]
    assert keys == [reference_key(s) for s in schemes]
    for s in schemes:
        assert_chambers_tile_levels(s, build_arrangement(s))
        u, vinv = s.u, s.v.inverse()
        assert chamber_minor_family(s) == [
            (u.apply(c.row_set), vinv.apply(c.col_set))
            for c in chambers(s) if c.level]
    graph = enumerate_isotopy_types(w0, w0)
    assert len(set(keys)) == 34
    assert {node.key for node in graph.nodes} == set(keys)
    assert graph.is_connected()


def applied(scheme, kind, p):
    try:
        return apply_move(scheme, Move(kind, p)).word
    except MoveNotApplicable:
        return None


def assert_matches_reference_rules(scheme):
    # the chamber table, key, family and moves against the line-state and
    # one-predicate-per-move oracles, with apply_move tried at every kind
    # and every position, negative and past-the-end ones included; each
    # chamber's end and bounding kinds against the word
    n, word = scheme.n, scheme.word
    assert_chambers_tile_levels(scheme, build_arrangement(scheme))
    assert [(c.level, c.start, c.row_set, c.col_set)
            for c in chambers(scheme)] == reference.chamber_sets(n, word)
    assert isotopy_key(scheme) == reference.isotopy_key(scheme)
    assert (chamber_minor_family(scheme)
            == reference.chamber_minor_family(scheme))
    assert available_moves(scheme) == [
        Move(kind, p) for kind, p in reference.moves(word)]
    tries = [(kind, p) for kind in (TRIVIAL2, MIXED2, BRAID3)
             for p in range(-3, len(word) + 2)]
    assert ([applied(scheme, kind, p) for kind, p in tries]
            == [reference.moved_word(word, kind, p) for kind, p in tries])


def test_open_gl3_words_match_reference_rules(open_gl3_schemes):
    for s in open_gl3_schemes:
        assert_matches_reference_rules(s)


@pytest.mark.parametrize("n", [4, 5])
def test_walked_schemes_match_reference_rules(n):
    rng = random.Random(700 + n)
    w0 = Permutation.longest_element(n)
    cells = [(w0, w0)]
    for _ in range(3):
        u, v = list(range(1, n + 1)), list(range(1, n + 1))
        rng.shuffle(u)
        rng.shuffle(v)
        cells.append((Permutation(u), Permutation(v)))
    for u, v in cells:
        scheme = seed_scheme(u, v)
        for _ in range(40):
            assert_matches_reference_rules(scheme)
            # the one check returns the cached (u, v, v^-1)
            cells = scheme.validate()
            assert scheme.validate() is cells
            assert cells == (scheme.u, scheme.v, scheme.v.inverse())
            assert _line_states(n, scheme.word) == reference.line_states(
                n, scheme.word)
            scheme = apply_move(scheme, rng.choice(available_moves(scheme)))
        assert scheme.cell_type == (u, v)


def test_open_n30_seed_scheme_matches_reference_rules():
    w0 = Permutation.longest_element(30)
    scheme = seed_scheme(w0, w0)
    assert_matches_reference_rules(scheme)
    # the label cache is bounded: nothing grows with 2^n
    assert _labels.cache_info().maxsize is not None


def test_isotopy_key_matches_reference_on_every_gl3_word():
    # on every word of all 36 GL_3 cells the key equals the oracle's, with
    # the key cache cold and again warm; it depends only on the e/f
    # subword, so moving every h symbol to the end leaves it unchanged
    for u in all_permutations(3):
        for v in all_permutations(3):
            schemes = all_schemes_of_type(u, v)
            _crossing_key.cache_clear()
            keys = [isotopy_key(s) for s in schemes]
            assert keys == [reference.isotopy_key(s) for s in schemes]
            assert [isotopy_key(s) for s in schemes] == keys
            for s, key in zip(schemes, keys):
                crossings = tuple(sym for sym in s.word if sym.kind != H)
                bullets = tuple(sym for sym in s.word if sym.kind == H)
                moved = FactorizationScheme.make(s.n, crossings + bullets)
                assert isotopy_key(moved) == key


def test_isotopy_key_cache_tells_sizes_apart():
    # one crossing word at two sizes: each size gets its own key
    _crossing_key.cache_clear()
    for text in ("e1 h1 h2", "e1 h1 h2 h3", "e1 h1 h2"):
        scheme = parse_scheme(text)
        assert isotopy_key(scheme) == reference.isotopy_key(scheme)
    # the key cache is bounded
    assert _crossing_key.cache_info().maxsize is not None


def test_mismatched_sizes_raise_size_mismatch():
    # (54321, 12) would also pass the word bound of the walk
    u3, v2 = Permutation.from_string("321"), Permutation.from_string("12")
    u5 = Permutation.from_string("54321")
    for u, v in ((u3, v2), (v2, u3), (u5, v2)):
        with pytest.raises(SizeMismatch):
            seed_scheme(u, v)
        with pytest.raises(SizeMismatch):
            enumerate_isotopy_types(u, v)


def assert_matches_reference_walk(u, v):
    # nodes (keys, families, representative schemes) and edges
    graph = enumerate_isotopy_types(u, v)
    nodes = [(node.key, node.family, str(node.scheme)) for node in graph.nodes]
    assert (nodes, graph.edges) == reference_enumerate(u, v)


def test_enumerate_matches_reference_walk_every_gl3_cell():
    for u in all_permutations(3):
        for v in all_permutations(3):
            assert_matches_reference_walk(u, v)


def test_enumerate_matches_reference_walk_on_small_gl4_cells():
    # a seeded sample of GL_4 cells with l(u) + l(v) <= 3: larger
    # alphabets than GL_3, with repeated letters
    cells = [(u, v) for u in all_permutations(4) for v in all_permutations(4)
             if u.length() + v.length() <= 3]
    for u, v in random.Random(1404).sample(cells, 12):
        assert_matches_reference_walk(u, v)


def test_enumerate_matches_reference_walk_on_length4_gl4_cells():
    # l(u) + l(v) = 4 with two letters of each kind, so every edge comes
    # from a mixed2 move; cells of at most 10,080 words keep the reference
    # walk near 2 s.  Seed 1707 draws cells of 4 and 3 classes.
    cells = [(u, v) for u in all_permutations(4) for v in all_permutations(4)
             if u.length() == v.length() == 2
             and walk_word_count(u, v) <= 10080]
    for u, v in random.Random(1707).sample(cells, 2):
        assert_matches_reference_walk(u, v)


def test_walk_keys_each_counted_word_once_on_every_gl3_cell(monkeypatch):
    # the walk calls isotopy_key once per scheme word, and walk_word_count
    # predicts that number from R(u) and R(v) alone
    calls = []

    def counted(scheme):
        calls.append(scheme.word)
        return isotopy_key(scheme)

    monkeypatch.setattr(schemes, "isotopy_key", counted)
    for u in all_permutations(3):
        for v in all_permutations(3):
            calls.clear()
            enumerate_isotopy_types(u, v)
            assert len(calls) == len(set(calls))
            assert len(calls) == walk_word_count(u, v) == scheme_count(u, v)


def test_walk_word_count_matches_reduced_word_oracle():
    for u in all_permutations(4):
        for v in all_permutations(4):
            assert walk_word_count(u, v) == scheme_count(u, v)
    w0 = Permutation.longest_element(4)
    assert walk_word_count(w0, w0) == 10_332_241_920
    # R(w0) in S_6 is 292,864, past the bound only with the shuffles
    w6 = Permutation.longest_element(6)
    assert walk_word_count(w6, Permutation.identity(6)) == (
        292_864 * math.factorial(21) // math.factorial(15))


def test_walk_word_count_stops_past_the_bound():
    # R(w0) in S_7 is 1,100,742,656: it stops at MAX_WALK_WORDS + 1
    w7, e7 = Permutation.longest_element(7), Permutation.identity(7)
    assert walk_word_count(w7, e7) == (
        (MAX_WALK_WORDS + 1) * math.factorial(28) // math.factorial(21))
    # from n = 10 on, 10! alone passes the bound and stands for the count
    for n in (10, 11, 300):
        w = Permutation.longest_element(n)
        assert walk_word_count(w, w) == math.factorial(10)


@pytest.mark.parametrize("u, v, count", [
    ("4321", "4321", "10,332,241,920"),
    ("2143", "4321", "10,644,480"),
    ("1234567", "7654321", "5,967,567,567,561,600"),
    ("10,9,8,7,6,5,4,3,2,1", "1,2,3,4,5,6,7,8,9,10", "3,628,800"),
], ids=["open-gl4", "gl4", "gl7-r-capped", "gl10-orders"])
def test_enumerate_refuses_past_the_word_bound(u, v, count):
    u, v = Permutation.from_string(u), Permutation.from_string(v)
    with pytest.raises(TooMuchWork, match=f"at least {count} scheme words"):
        enumerate_isotopy_types(u, v)
