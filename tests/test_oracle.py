"""The brute-force oracles themselves, checked against worked ground truth.

The oracles back every differential test in the suite, so they get pinned
to hand-verifiable values here before anything else trusts them.
"""

import itertools
import random

import pytest

from fibword import oracle
from fibword.words import AB, ABC, BINARY


def test_brute_sp_enumerate_worked_sets():
    got = {w.text for w in oracle.brute_sp_enumerate(AB.word("abaa"))}
    assert got == {"a", "b", "aa", "aba", "aaa"}
    assert {w.text for w in oracle.brute_sp_enumerate(AB.word("ab"))} == {"a", "b"}
    assert len(oracle.brute_sp_enumerate(AB.word("abab"))) == 6


def test_brute_sp_count_matches_enumeration():
    for text in ("", "a", "abaa", "abab", "abba", "aabbaa"):
        w = AB.word(text)
        assert oracle.brute_sp_count(w) == len(oracle.brute_sp_enumerate(w))


def test_brute_sp_counts_match_word_by_word_enumeration():
    # every binary word of length 1-10 and every ternary word of length 1-6, and no other key
    for symbols, alphabet, n_max in (("ab", AB, 10), ("abc", ABC, 6)):
        texts = ["".join(t) for n in range(1, n_max + 1) for t in itertools.product(symbols, repeat=n)]
        counts = oracle.brute_sp_counts(symbols, n_max)
        assert counts.keys() == set(texts)
        assert all(counts[t] == oracle.brute_sp_count(alphabet.word(t)) for t in texts)


def test_brute_sp_guard():
    with pytest.raises(ValueError):
        oracle.brute_sp_count(AB.word("a" * 21))


def test_brute_count_overlap_convention():
    assert oracle.brute_count(AB.word("aa"), AB.word("aaa")) == 2
    assert oracle.brute_count(BINARY.word("0"), BINARY.word("01001010")) == 5
    assert oracle.brute_count(BINARY.word("1"), BINARY.word("")) == 0
    with pytest.raises(ValueError):
        oracle.brute_count(BINARY.word(""), BINARY.word("0"))


def test_brute_square_scan():
    assert oracle.brute_square_scan(AB.word("abab"))
    assert not oracle.brute_square_scan(ABC.word("abc"))
    assert not oracle.brute_square_scan(ABC.word("abcacb"))
    with pytest.raises(ValueError):
        oracle.brute_square_scan(AB.word("a" * 1001))


def test_brute_overlap_scan():
    assert oracle.brute_overlap_scan(AB.word("aaa"))  # a·ε·a·ε·a
    assert oracle.brute_overlap_scan(AB.word("ababa"))
    assert not oracle.brute_overlap_scan(AB.word("aba"))
    assert not oracle.brute_overlap_scan(AB.word(""))


def test_brute_factor_set():
    got = {w.text for w in oracle.brute_factor_set(BINARY.word("0100"), 2)}
    assert got == {"01", "10", "00"}


def test_brute_pal_factor_set():
    got = {w.text for w in oracle.brute_pal_factor_set(AB.word("abaa"))}
    assert got == {"a", "b", "aa", "aba"}


def _every_palindromic_factor(text):
    return {text[i:j] for i in range(len(text)) for j in range(i + 1, len(text) + 1)
            if text[i:j] == text[i:j][::-1]}


def test_brute_pal_factor_set_matches_every_factor_filter():
    # the centre scan against a filter of every factor: all binary words of length <= 12,
    # then 200 seeded ternary words of length <= 60
    rng = random.Random(20)
    ternary = ["".join(rng.choices("abc", k=rng.randint(0, 60))) for _ in range(200)]
    binary = ["".join(t) for n in range(13) for t in itertools.product("ab", repeat=n)]
    for alphabet, texts in ((AB, binary), (ABC, ternary)):
        for text in texts:
            got = oracle.brute_pal_factor_set(alphabet.word(text))
            assert {w.text for w in got} == _every_palindromic_factor(text), text
            assert {w.alphabet for w in got} <= {alphabet}


def test_brute_square_free_words_small():
    words = [w.text for w in oracle.brute_square_free_words(2, 3)]
    assert words == ["aba", "bab"]
    assert len(oracle.brute_square_free_words(3, 1)) == 3
    with pytest.raises(ValueError):
        oracle.brute_square_free_words(4, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: oracle.brute_sp_enumerate(AB.word("a" * 21)), r"brute enumeration is limited to \|w\| <= 20"),
        (lambda: oracle.brute_factor_set(AB.word("ab"), -1), "factor length must be nonnegative"),
        (lambda: oracle.brute_square_free_words(2, -1), "length must be nonnegative"),
        (lambda: oracle.brute_square_free_words(3, 16), "brute enumeration is limited to n <= 15"),
        (lambda: oracle.brute_sp_counts("ab", 15), "brute enumeration is limited to 32768 words; this call needs 65535"),
        (lambda: oracle.brute_sp_counts("abc", 10), "brute enumeration is limited to 32768 words; this call needs 88573"),
    ],
    ids=["sp-enumerate-past-20", "factor-set-negative-k", "square-free-negative-n", "square-free-past-15",
         "sp-counts-binary-past-14", "sp-counts-ternary-past-9"],
)
def test_oracle_guards_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_delta_factorizations_unique_on_images():
    assert [w.text for w in oracle.delta_factorizations(AB.word("abbaba"))] == ["abc"]
    assert [w.text for w in oracle.delta_factorizations(AB.word("a"))] == ["c"]
    assert oracle.delta_factorizations(AB.word("b")) == []
