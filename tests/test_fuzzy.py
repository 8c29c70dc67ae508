"""Fuzzy words: per-letter degrees combined by minimum."""

import json
import random

import pytest

from fibword.cli import main
from fibword.fuzzy import (
    FuzzyWord,
    fuzzy_concat,
    fuzzy_fib_word,
    word_membership,
)
from fibword.words import AB, Word


def test_worked_example():
    fw = fuzzy_fib_word(4, 0.8, 0.5)
    assert fw.word.text == "abaab"
    assert fw.memberships == (0.8, 0.5, 0.8, 0.8, 0.5)
    assert word_membership(fw) == 0.5


def test_base_cases_and_small_words():
    assert fuzzy_fib_word(0, 0.8, 0.5).word.text == "b"
    assert fuzzy_fib_word(1, 0.8, 0.5).word.text == "a"
    fw2 = fuzzy_fib_word(2, 0.8, 0.5)
    assert fw2.word.text == "ab"
    assert fw2.memberships == (0.8, 0.5)
    assert fuzzy_fib_word(3, 0.8, 0.5).word.text == "aba"


def test_crisp_degenerate_case():
    fw = fuzzy_fib_word(7, 1.0, 1.0)
    assert set(fw.memberships) == {1.0}
    assert word_membership(fw) == 1.0


def test_matches_crisp_recursion():
    words = ["b", "a"]
    for _ in range(9):
        words.append(words[-1] + words[-2])
    for n in range(0, 11):
        assert fuzzy_fib_word(n, 0.3, 0.9).word.text == words[n]


def test_guards():
    with pytest.raises(ValueError):
        fuzzy_fib_word(31, 0.5, 0.5)
    with pytest.raises(ValueError):
        fuzzy_fib_word(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        fuzzy_fib_word(3, 1.2, 0.5)
    with pytest.raises(ValueError):
        fuzzy_fib_word(3, 0.5, -0.1)


def test_fuzzy_word_validation():
    with pytest.raises(ValueError):
        FuzzyWord(Word(AB, "ab"), (0.5,))
    with pytest.raises(ValueError):
        FuzzyWord(Word(AB, "a"), (1.5,))


def test_single_symbol_membership():
    fw = FuzzyWord(Word(AB, "a"), (0.8,))
    assert word_membership(fw) == 0.8


def test_empty_word_has_no_membership():
    with pytest.raises(ValueError):
        word_membership(FuzzyWord(Word(AB, ""), ()))


def test_membership_distributes_over_concat():
    rng = random.Random(31)
    for _ in range(100):
        u = fuzzy_fib_word(rng.randint(0, 8), rng.random(), rng.random())
        v = fuzzy_fib_word(rng.randint(0, 8), rng.random(), rng.random())
        w = fuzzy_concat(u, v)
        assert word_membership(w) == min(word_membership(u), word_membership(v))


def test_json_serialization(capsys):
    assert main(["fuzzy", "--n", "2", "--mu-a", "0.8", "--mu-b", "0.5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {"symbol": "a", "membership": 0.8},
        {"symbol": "b", "membership": 0.5},
    ]
