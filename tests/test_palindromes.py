"""Palindromic factors, scattered palindromic subsequences, density tables.

Note on the worked pair: P("abaa") = 4 and SP("abaa") = 5, while for
"abab" only the subsequence count is 6 — its palindromic factors are
{a, b, aba, bab} (aa and bb occur scattered, not contiguously), so
P("abab") = 4.  The module reports measured truth.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibword import oracle
from fibword.cli import main
from fibword.fibonacci import fib, infinite_prefix
from fibword.palindromes import (
    is_numeric_palindrome,
    is_palindrome,
    pal_density_table,
    pal_factors,
    palindrome_report,
    sp_count,
    sp_delta,
)
from fibword.words import AB, ABC, BINARY

ab_texts = st.text(alphabet="ab", max_size=60)
abc_texts = st.text(alphabet="abc", min_size=1, max_size=12)


def test_is_palindrome():
    assert is_palindrome(AB.word("aba"))
    assert not is_palindrome(AB.word("ab"))
    assert is_palindrome(AB.word(""))
    assert is_palindrome(AB.word("a"))


def test_is_numeric_palindrome():
    assert is_numeric_palindrome(12321)
    assert not is_numeric_palindrome(10)
    assert is_numeric_palindrome(7)
    assert is_numeric_palindrome(0)
    with pytest.raises(ValueError):
        is_numeric_palindrome(-121)


def test_pal_factors_worked_example():
    report = pal_factors(AB.word("abaa"))
    assert {w.text for w in report.pal_factors} == {"a", "b", "aa", "aba"}
    assert report.p_count == 4
    assert report.sp_count is None


def test_pal_factors_of_abab_are_four():
    # aa and bb are subsequences of abab, not factors
    report = pal_factors(AB.word("abab"))
    assert {w.text for w in report.pal_factors} == {"a", "b", "aba", "bab"}
    assert report.p_count == 4


def test_pal_factors_empty_word():
    report = pal_factors(AB.word(""))
    assert report.pal_factors == ()
    assert report.p_count == 0


def test_pal_factors_sorted_under_alphabet_order():
    report = pal_factors(AB.word("abaa"))
    texts = [w.text for w in report.pal_factors]
    assert texts == sorted(texts)


def test_sp_count_worked_examples():
    assert sp_count(AB.word("abaa")) == 5
    assert sp_count(AB.word("abab")) == 6
    assert sp_count(AB.word("a")) == 1
    assert sp_count(AB.word("")) == 0


def test_sp_count_guard():
    with pytest.raises(ValueError):
        sp_count(BINARY.word("0" * (10**4 + 1)))


def test_sp_delta_examples():
    assert sp_delta(AB.word("ab"), "a") == 2
    assert sp_delta(AB.word("aa"), "a") == 1
    assert sp_delta(AB.word(""), "a") == 1


def test_sp_count_matches_oracle_exhaustively():
    for n in range(1, 11):
        for bits in product("ab", repeat=n):
            w = AB.word("".join(bits))
            assert sp_count(w) == oracle.brute_sp_count(w)


@given(abc_texts)
def test_sp_count_matches_oracle_ternary(text):
    w = ABC.word(text)
    assert sp_count(w) == oracle.brute_sp_count(w)


@given(ab_texts)
def test_pal_factors_reversal_invariant(text):
    w = AB.word(text)
    assert set(pal_factors(w).pal_factors) == set(pal_factors(w.reverse()).pal_factors)


@given(ab_texts)
def test_pal_factor_members_are_palindromic_factors(text):
    w = AB.word(text)
    for member in pal_factors(w).pal_factors:
        assert is_palindrome(member)
        assert member.text in w.text


def test_counting_inequality_small_exhaustive():
    for n in range(1, 11):
        for bits in product("ab", repeat=n):
            w = AB.word("".join(bits))
            assert pal_factors(w).p_count <= len(w) <= sp_count(w)


def test_pal_factors_match_oracle():
    rng = random.Random(17)
    for _ in range(120):
        w = AB.word("".join(rng.choice("ab") for _ in range(rng.randint(0, 300))))
        assert set(pal_factors(w).pal_factors) == oracle.brute_pal_factor_set(w)


def test_rich_words_have_one_palindrome_per_symbol():
    # Sturmian words are rich, so every prefix of the infinite word has
    # exactly n distinct nonempty palindromic factors; so has a^n.
    for w in (infinite_prefix(1000), infinite_prefix(5000), AB.word("a" * 1024)):
        assert pal_factors(w).p_count == len(w)


def test_palindrome_report_fills_both_counts():
    report = palindrome_report(AB.word("abaa"))
    assert report.p_count == 4
    assert report.sp_count == 5


def test_sp_delta_growth_is_fibonacci_bounded():
    for n in range(0, 11):
        for bits in product("ab", repeat=n):
            w = AB.word("".join(bits))
            for c in "ab":
                assert sp_delta(w, c) <= fib(len(w) + 1)


def test_pal_density_table_short_prefix():
    table = pal_density_table(13, 2)
    by_text = {w.text: s for w, s in table.items()}
    assert set(by_text) == {"00", "11"}
    assert by_text["00"].value == Fraction(3, 13)
    assert by_text["11"].value == 0


def test_pal_density_table_length_three():
    table = pal_density_table(1000, 3)
    by_text = {w.text: int(s.value * s.n) for w, s in table.items()}
    assert by_text == {"000": 0, "010": 381, "101": 145, "111": 0}


def test_pal_density_table_length_one_partitions():
    table = pal_density_table(89, 1)
    assert sum(s.value for s in table.values()) == 1


def test_pal_density_table_counts_match_oracle():
    prefix = infinite_prefix(233)
    table = pal_density_table(233, 4)
    for w, s in table.items():
        assert int(s.value * s.n) == oracle.brute_count(w, prefix)


def test_pal_density_table_guards():
    with pytest.raises(ValueError):
        pal_density_table(100, 0)
    with pytest.raises(ValueError):
        pal_density_table(100, 9)
    with pytest.raises(ValueError):
        pal_density_table(1, 2)


def test_density_table_to_csv_shape(capsys):
    assert main(["palindromes", "--prefix", "13", "--length", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "palindrome,count,n,density"
    assert lines[1].startswith("00,3,13,")
    assert lines[2] == "11,0,13,0.0"
