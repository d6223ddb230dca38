import itertools
import re

import pytest

from reference import all_permutations, reduced_words, weak_order_leq
from tpfact.errors import IndexOutOfRange, ValidationError
from tpfact.linalg import Matrix, det
from tpfact.permutations import (
    Permutation,
    is_reduced,
    signed_representative,
)


def brute_reduced_words(w):
    # oracle: try every generator sequence of length len(w)
    n, target = w.n, w.length()
    found = []
    for seq in itertools.product(range(1, n), repeat=target):
        if Permutation.from_word(n, seq) == w:
            found.append(tuple(seq))
    return sorted(found)


def test_composition_convention():
    # (w1 w2)(i) = w1(w2(i))
    w1 = Permutation((2, 1, 3))
    w2 = Permutation((1, 3, 2))
    prod = w1 * w2
    for i in range(1, 4):
        assert prod(i) == w1(w2(i))
    assert prod.oneline == (2, 3, 1)


def test_composition_refuses_two_sizes():
    with pytest.raises(ValidationError, match="of different sizes") as info:
        Permutation((2, 1)) * Permutation((1, 3, 2))
    assert type(info.value) is ValidationError


def test_simple_swaps_positions():
    s1 = Permutation.simple(3, 1)
    assert s1.oneline == (2, 1, 3)
    w = Permutation((3, 1, 2))
    assert (w * s1).oneline == (1, 3, 2)


def test_from_word_left_to_right():
    w = Permutation.from_word(3, (1, 2, 1))
    assert w == Permutation.longest_element(3)
    assert Permutation.from_word(3, ()) == Permutation.identity(3)


def test_from_string_and_str():
    w = Permutation.from_string("4312")
    assert w.oneline == (4, 3, 1, 2)
    assert str(w) == "4312"
    big = Permutation.from_string("10,1,2,3,4,5,6,7,8,9")
    assert big(1) == 10
    assert str(big) == "10,1,2,3,4,5,6,7,8,9"
    with pytest.raises(ValidationError):
        Permutation.from_string("122")
    # ASCII digits only: int() alone would read each of these as 21 or 12;
    # no digit groups either, as it would read "0_2,1" as 21 too
    for text in ("\u0662\u0661", "\uff12\uff11", "1,\u0662", "\u00a012",
                 "0_2,1", "2,1_0"):
        with pytest.raises(ValidationError, match="bad permutation literal"):
            Permutation.from_string(text)


def test_length_counts_inversions():
    assert Permutation.identity(4).length() == 0
    assert Permutation.longest_element(4).length() == 6
    assert Permutation.from_string("4312").length() == 5
    assert Permutation.from_string("4213").length() == 4


def test_inverse():
    w = Permutation.from_string("4312")
    assert w * w.inverse() == Permutation.identity(4)
    assert w.inverse().oneline == (3, 4, 2, 1)


def test_apply_sorts_image():
    w = Permutation.from_string("4312")
    assert w.apply((1, 2)) == (3, 4)
    assert w.apply(()) == ()


@pytest.mark.parametrize("oneline", [(2.7, 1.2), (2.0, 1), ("2", "1"),
                                     (True, 2), (2, None)])
def test_entries_must_be_integers(oneline):
    # int() would truncate 2.7 to 2 and accept strings and bools
    with pytest.raises(ValidationError, match="is not an integer"):
        Permutation(oneline)


@pytest.mark.parametrize("i", [0, -1, 3, 1.0, "1", None,
                               pytest.param(True, id="bool")])
def test_indices_outside_one_to_n_raise(i):
    # index 0 used to wrap to the last entry, and True to map to the
    # first one (w(True) == 2, w.apply((True,)) == (2,)); the same
    # indices name no simple reflection of S_3
    w = Permutation((2, 1))
    message = re.escape(f"argument {i!r} outside [1, 2]")
    with pytest.raises(IndexOutOfRange, match=message):
        w(i)
    with pytest.raises(IndexOutOfRange, match=message):
        w.apply((1, i))
    # Permutation.simple(3, True) used to return s_1 = 213
    message = re.escape(f"simple reflection index {i!r} outside [1, 2]")
    with pytest.raises(IndexOutOfRange, match=message):
        Permutation.simple(3, i)


@pytest.mark.parametrize("letter", [True, 1.0, "1", None],
                         ids=["bool", "float", "str", "none"])
def test_from_word_rejects_a_non_integer_letter(letter):
    # True used to act as s_1 (from_word(3, (True,)) gave 213), and 1.0
    # raised a bare TypeError from list indexing
    message = re.escape(f"letter {letter!r} outside [1, 2]")
    with pytest.raises(IndexOutOfRange, match=message):
        Permutation.from_word(3, (1, letter))


def test_reduced_words_against_brute_force():
    for w in all_permutations(3):
        assert sorted(reduced_words(w)) == brute_reduced_words(w)
        assert w.lex_min_reduced_word() == brute_reduced_words(w)[0]
    for s in ("4231", "4321"):
        w = Permutation.from_string(s)
        assert sorted(reduced_words(w)) == brute_reduced_words(w)
        assert w.lex_min_reduced_word() == brute_reduced_words(w)[0]
    for n in (1, 2, 4, 5):
        for w in all_permutations(n):
            assert w.lex_min_reduced_word() == min(reduced_words(w))
    for n in range(2, 9):
        # 1, 21, 321, ...: the lex-min word of the longest element
        expected = tuple(i for j in range(1, n) for i in range(j, 0, -1))
        assert Permutation.longest_element(n).lex_min_reduced_word() == expected


def test_reduced_word_counts():
    # classic count for the longest element of S_4
    assert len(reduced_words(Permutation.longest_element(4))) == 16
    assert len(reduced_words(Permutation.longest_element(3))) == 2


def test_is_reduced():
    w0 = Permutation.longest_element(3)
    assert is_reduced((1, 2, 1), w0)
    assert is_reduced((2, 1, 2), w0)
    assert not is_reduced((1, 1, 2), w0)
    assert not is_reduced((1, 2), w0)


def test_weak_order():
    w0 = Permutation.longest_element(3)
    for w in all_permutations(3):
        assert weak_order_leq(w, w0)
    a = Permutation.from_string("213")
    b = Permutation.from_string("231")
    assert weak_order_leq(a, b)
    assert not weak_order_leq(b, a)


def test_signed_representative_values():
    u = Permutation.from_string("4312")
    assert signed_representative(u).rows == (
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, -1, 0, 0),
        (1, 0, 0, 0),
    )
    vinv = Permutation.from_string("4213").inverse()
    assert signed_representative(vinv).rows == (
        (0, 0, 0, -1),
        (0, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 1, 0),
    )


def test_signed_representative_has_det_one():
    for w in all_permutations(4):
        assert det(signed_representative(w)) == 1


def test_signed_representative_multiplicative_when_lengths_add():
    # bar(w' w'') = bar(w') bar(w'') whenever len(w' w'') = len(w') + len(w'')
    for wp in all_permutations(3):
        for wpp in all_permutations(3):
            prod = wp * wpp
            if prod.length() == wp.length() + wpp.length():
                assert (signed_representative(wp) * signed_representative(wpp)
                        == signed_representative(prod))


def test_signed_representative_is_the_product_along_a_reduced_word():
    # the paper's definition: wbar = sbar_{i1} ... sbar_{il} for a reduced
    # word i1 ... il of w
    simple = [signed_representative(Permutation.simple(5, i))
              for i in range(1, 5)]
    for w in all_permutations(5):
        expected = Matrix.identity(5)
        for i in w.lex_min_reduced_word():
            expected = expected * simple[i - 1]
        assert signed_representative(w) == expected


def test_all_permutations_count():
    assert len(all_permutations(4)) == 24
    assert all_permutations(1) == [Permutation((1,))]
