"""Alphabets, words, morphisms, and the factor/subsequence predicates."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibword import oracle
from fibword.fibonacci import FIBONACCI_MORPHISM, infinite_prefix
from fibword.squarefree import DELTA_MORPHISM
from fibword.words import (
    AB,
    ABC,
    BINARY,
    Alphabet,
    Morphism,
    Word,
    apply_morphism,
    concat,
    distinct_factors,
    is_factor,
    is_scattered_subword,
    letter_count,
)

binary_texts = st.text(alphabet="01", max_size=64)


def test_alphabet_rejects_bad_input():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet(["ab"])


def test_alphabet_order_is_fixed():
    alpha = Alphabet("ba")
    assert alpha.symbols == ("b", "a")
    assert alpha.rank("b") == 0
    with pytest.raises(ValueError):
        alpha.rank("c")


def test_word_validates_symbols():
    with pytest.raises(ValueError):
        Word(BINARY, "012")
    assert Word(BINARY, "0101").text == "0101"


def test_word_serializes_as_plain_string():
    assert str(Word(BINARY, "010")) == "010"
    assert str(Word(BINARY, "")) == ""


def test_word_equality_includes_alphabet():
    assert Word(AB, "ab") != Word(ABC, "ab")
    assert Word(AB, "ab") == AB.word("ab")
    assert hash(AB.word("ab")) == hash(Word(AB, "ab"))


def test_word_slicing_and_reverse():
    w = BINARY.word("01001")
    assert w[0] == "0"
    assert w[1:3].text == "10"
    assert w.reverse().text == "10010"


def test_concat_identity_element():
    assert concat(BINARY.word(""), BINARY.word("01")).text == "01"


def test_concat_reproduces_recurrence_step():
    assert concat(BINARY.word("01"), BINARY.word("0")).text == "010"


def test_concat_of_consecutive_words():
    # direct sequence join of the listed length-8 and length-5 words
    assert concat(BINARY.word("01001010"), BINARY.word("01001")).text == "0100101001001"


def test_concat_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        concat(BINARY.word("0"), AB.word("a"))


def test_letter_count_examples():
    w = AB.word("abaab")
    assert letter_count(w, "a") == 3
    assert letter_count(w, "b") == 2
    assert letter_count(AB.word(""), "a") == 0
    with pytest.raises(ValueError):
        letter_count(w, "c")


def test_apply_morphism_examples():
    assert apply_morphism(FIBONACCI_MORPHISM, BINARY.word("0")).text == "01"
    assert apply_morphism(FIBONACCI_MORPHISM, BINARY.word("010")).text == "01001"
    assert apply_morphism(DELTA_MORPHISM, ABC.word("abc")).text == "abbaba"


def test_apply_morphism_rejects_foreign_word():
    with pytest.raises(ValueError):
        apply_morphism(FIBONACCI_MORPHISM, AB.word("ab"))


def test_morphism_requires_total_nonempty_images():
    with pytest.raises(ValueError):
        Morphism(BINARY, BINARY, {"0": "01"})
    with pytest.raises(ValueError):
        Morphism(BINARY, BINARY, {"0": "01", "1": ""})
    with pytest.raises(ValueError):
        Morphism(BINARY, BINARY, {"0": "01", "1": "0", "2": "1"})


def test_fixed_point_prefix():
    assert FIBONACCI_MORPHISM.fixed_point_prefix("0", 0) == ""
    assert FIBONACCI_MORPHISM.fixed_point_prefix("0", 1) == "0"
    assert FIBONACCI_MORPHISM.fixed_point_prefix("0", 10) == "0100101001"
    stalls = Morphism(AB, AB, {"a": "a", "b": "ab"})
    assert stalls.fixed_point_prefix("b", 5) == "aaaab"
    with pytest.raises(ValueError):
        stalls.fixed_point_prefix("a", 2)


def test_is_factor_examples():
    assert is_factor(BINARY.word(""), BINARY.word("01"))
    assert is_factor(BINARY.word("010"), BINARY.word("0100101"))
    assert not is_factor(BINARY.word("11"), BINARY.word("0100101001001"))
    with pytest.raises(ValueError):
        is_factor(AB.word("a"), BINARY.word("0"))


def test_is_scattered_subword_examples():
    assert is_scattered_subword(AB.word("aaa"), AB.word("abaa"))
    assert not is_scattered_subword(AB.word("bb"), AB.word("aba"))
    assert is_scattered_subword(AB.word(""), AB.word("ab"))


def test_distinct_factors_of_the_infinite_word():
    prefix = infinite_prefix(610)
    assert [f.text for f in distinct_factors(prefix, 1)] == ["0", "1"]
    assert [f.text for f in distinct_factors(prefix, 2)] == ["00", "01", "10"]
    assert [f.text for f in distinct_factors(prefix, 3)] == ["001", "010", "100", "101"]


def test_distinct_factors_edge_cases():
    w = BINARY.word("010")
    assert [f.text for f in distinct_factors(w, 0)] == [""]
    assert distinct_factors(w, 4) == []
    with pytest.raises(ValueError):
        distinct_factors(w, -1)


def test_distinct_factors_respects_alphabet_order():
    alpha = Alphabet("10")  # reversed order
    w = Word(alpha, "0110")
    assert [f.text for f in distinct_factors(w, 1)] == ["1", "0"]


@given(binary_texts, binary_texts)
def test_concat_length_and_counts_are_additive(s, t):
    u, v = BINARY.word(s), BINARY.word(t)
    w = concat(u, v)
    assert len(w) == len(u) + len(v)
    for c in "01":
        assert letter_count(w, c) == letter_count(u, c) + letter_count(v, c)


@given(binary_texts)
def test_length_is_sum_of_letter_counts(s):
    w = BINARY.word(s)
    assert sum(letter_count(w, c) for c in BINARY) == len(w)


@given(binary_texts, binary_texts)
def test_morphism_distributes_over_concat(s, t):
    u, v = BINARY.word(s), BINARY.word(t)
    lhs = apply_morphism(FIBONACCI_MORPHISM, concat(u, v))
    rhs = concat(apply_morphism(FIBONACCI_MORPHISM, u), apply_morphism(FIBONACCI_MORPHISM, v))
    assert lhs == rhs


def test_every_factor_is_a_scattered_subword():
    # exhaustive over binary words up to length 12, every factor
    for n in range(1, 13):
        for bits in product("01", repeat=n):
            x = BINARY.word("".join(bits))
            for k in range(0, n + 1):
                for v in distinct_factors(x, k):
                    assert is_scattered_subword(v, x)


def test_factor_complexity_matches_oracle():
    prefix = infinite_prefix(610)
    for k in range(1, 16):
        mine = distinct_factors(prefix, k)
        assert len(mine) == k + 1  # Sturmian complexity
        assert set(mine) == oracle.brute_factor_set(prefix, k)
