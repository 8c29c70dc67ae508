"""Palindromic factors, scattered palindromic subsequences, density tables.

Note on the worked pair: P("abaa") = 4 and SP("abaa") = 5, while for
"abab" only the subsequence count is 6 — its palindromic factors are
{a, b, aba, bab} (aa and bb occur scattered, not contiguously), so
P("abab") = 4.  The module reports measured truth.
"""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibword import oracle, palindromes
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
from fibword.words import AB, ABC, BINARY, GUARDS, Alphabet

SRC = Path(__file__).resolve().parent.parent / "src"

ab_texts = st.text(alphabet="ab", max_size=60)
abc_texts = st.text(alphabet="abc", min_size=1, max_size=12)
letters_and_texts = st.sampled_from(["a", "ab", "abc", "abcd"]).flatmap(
    lambda letters: st.tuples(st.just(letters), st.text(letters, max_size=40))
)


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


@pytest.mark.parametrize("alpha", [Alphabet("ba"), Alphabet("cab"), Alphabet("10")])
def test_pal_factors_sorted_under_non_code_point_alphabets(alpha):
    rng = random.Random(19)
    for _ in range(40):
        text = "".join(rng.choices(alpha.symbols, k=rng.randint(0, 60)))
        factors = pal_factors(alpha.word(text)).pal_factors
        texts = [f.text for f in factors]
        assert texts == sorted(texts, key=lambda t: tuple(alpha.rank(c) for c in t))
        assert set(factors) == oracle.brute_pal_factor_set(alpha.word(text))


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
    brute = oracle.brute_sp_counts("ab", 10)
    for n in range(1, 11):
        for bits in product("ab", repeat=n):
            w = AB.word("".join(bits))
            assert sp_count(w) == brute[w.text]


@given(abc_texts)
def test_sp_count_matches_oracle_ternary(text):
    w = ABC.word(text)
    assert sp_count(w) == oracle.brute_sp_count(w)


def _reference_sp(text):
    """SP by the outer letter of each palindrome: c alone, then cc and every
    c.p.c with p a palindrome strictly between the first and the last c."""

    @functools.cache
    def sp(i, j):
        total = 0
        for c in set(text[i : j + 1]):
            first, last = text.find(c, i, j + 1), text.rfind(c, i, j + 1)
            total += 1 if first == last else 2 + sp(first + 1, last - 1)
        return total

    return sp(0, len(text) - 1)


def test_sp_count_matches_reference_on_random_words():
    rng = random.Random(2024)
    for _ in range(320):
        letters = "abcd"[: rng.randint(1, 4)]
        w = Alphabet(letters).word("".join(rng.choice(letters) for _ in range(rng.randint(0, 120))))
        assert sp_count(w) == _reference_sp(w.text), w.text
        if w:
            assert sp_delta(w[:-1], w[-1]) == _reference_sp(w.text) - _reference_sp(w.text[:-1])


def test_sp_count_matches_reference_on_fibonacci_prefixes():
    for n in [*range(1, 60), *range(60, 301, 24)]:
        w = infinite_prefix(n)
        assert sp_count(w) == _reference_sp(w.text), n


def test_sp_count_pinned_values():
    # Pinned from the full n x n interval table, an independent route.
    assert sp_count(infinite_prefix(600)) == (
        161918213920061920763222845396033989222510925760515591967079
    )
    assert sp_count(infinite_prefix(1200)) == int(
        "708609453855304345002332633423308826987787766186698022234534894203444290798962"
        "5158559786175217369914886448537375272148"
    )
    text = format(random.Random(1200).getrandbits(1200), "01200b")
    assert sp_count(BINARY.word(text)) == int(
        "187643517697091567618231400898098927839243305019252446536055937081198788803803"
        "0376949007383325152"
    )
    w = infinite_prefix(300)
    assert sp_delta(w, "0") == 54298509348682061455858709846
    assert sp_delta(w, "1") == 151808968351768366494367663598


_SP_RSS_PROBE = """
import resource
from fibword.fibonacci import infinite_prefix
from fibword.palindromes import sp_count
w = infinite_prefix(3000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sp_count(w)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_sp_count_keeps_a_few_rows_alive():
    # A full n x n table of these big integers takes ~390 MB at this size.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _SP_RSS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024  # ru_maxrss is in KiB


_SP_TERNARY_RSS_PROBE = """
import random, resource
from fibword.palindromes import sp_count
from fibword.words import ABC
rng = random.Random(3000)
w = ABC.word("".join(rng.choice("abc") for _ in range(3000)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sp_count(w)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_sp_count_frees_values_no_left_end_reads():
    # Keeping every left end's values instead takes ~80 MB at this size.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _SP_TERNARY_RSS_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 1024  # ru_maxrss is in KiB


class _Admitted(Exception):
    pass


def test_sp_count_counts_its_slots_before_building_a_count_list(monkeypatch):
    def admitted(*iterables):
        raise _Admitted

    monkeypatch.setattr(palindromes, "chain", admitted)  # each count list is built from a chain
    limit = GUARDS["sp_slots"][0]
    assert limit == 12 * 10**6
    letters = "".join(map(chr, range(0x4E00, 0x4E00 + 5001)))
    alphabet = Alphabet(letters)
    with pytest.raises(_Admitted):  # 1,200 letters, each 8 or 9 times in 9,999 symbols: 1,200 * 10,000 slots
        sp_count(alphabet.word((letters[:1200] * 9)[:9999]))
    with pytest.raises(ValueError, match=f"^sp_slots is limited to {limit} count slots, .*needs 12010000$"):
        sp_count(alphabet.word((letters[:1201] * 9)[:9999]))
    with pytest.raises(ValueError, match="; this input needs 50005000$"):  # 5,000 letters each twice
        sp_count(alphabet.word(letters[:5000] * 2))
    with pytest.raises(ValueError, match="^sp_count is limited to 10000 symbols"):  # the length is checked first
        sp_count(alphabet.word(letters * 2))


def test_sp_count_of_a_unary_word_at_the_guard():
    # a^n has the n palindromic subsequences a..a^n; only n/2 + 1 intervals are reachable.
    assert sp_count(AB.word("a" * 10**4)) == 10**4


@given(letters_and_texts)
def test_sp_count_and_delta_match_reference_on_drawn_words(drawn):
    letters, text = drawn
    w = Alphabet(letters).word(text)
    assert sp_count(w) == _reference_sp(text)
    for c in letters:
        assert sp_delta(w, c) == _reference_sp(text + c) - _reference_sp(text)


SP_LETTERS = "abcdefghijklmnopqrstuvwxyz" + "".join(map(chr, range(0x1F600, 0x1F604)))  # 30, 4 outside the BMP


@st.composite
def sp_alphabets_and_texts(draw):
    """One to 30 letters, and a text of up to 80 symbols over them: random, or a drawn period repeated."""
    letters = "".join(draw(st.lists(st.sampled_from(SP_LETTERS), min_size=1, max_size=30, unique=True)))
    if draw(st.booleans()):
        return letters, draw(st.text(letters, max_size=80))
    return letters, (draw(st.text(letters, min_size=1, max_size=8)) * 80)[: draw(st.integers(0, 80))]


@settings(max_examples=150, deadline=None)
@given(sp_alphabets_and_texts())
@example(("abcdefghijklmnopqrstuvwxyz", "qwertyuiopasdfghjklzxcvbnm"))  # every letter distinct: only the bisect
@example(("ab\U0001F600\U0001F601", "\U0001F601ba\U0001F600"))  # the same, two outside the BMP
@example(("ab\U0001F600", "\U0001F600" + "abba" * 10))  # a letter once at the start among repeated letters
@example(("ab\U0001F600", "ab" * 20 + "\U0001F600"))  # and once at the end
@example(("abcd", "c" + "abba" * 10 + "d"))  # once at both ends
@example(("a", "a" * 80))  # one buffer, read as slices only
@example(("ab", "ab" * 40))
@example(("abcdefghij", "fdefjfhdhghiajgceacihibbdehc"))  # rows of one and of several right ends, 8 letters twice
def test_sp_count_matches_reference_on_drawn_alphabets(drawn):
    letters, text = drawn
    assert sp_count(Alphabet(letters).word(text)) == _reference_sp(text)


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
    # One to four letters, random and periodic, so single letters link to the
    # empty root and suffix walks reach the imaginary root from long nodes.
    rng = random.Random(17)
    words = [AB.word("".join(rng.choice("ab") for _ in range(rng.randint(0, 300))))
             for _ in range(120)]
    for _ in range(120):
        letters = "abcd"[: rng.randint(1, 4)]
        n = rng.randint(0, 120)
        period = "".join(rng.choices(letters, k=rng.randint(1, 6)))
        words.append(Alphabet(letters).word((period * n)[:n]))
        words.append(Alphabet(letters).word("".join(rng.choices(letters, k=n))))
    for w in words:
        assert set(pal_factors(w).pal_factors) == oracle.brute_pal_factor_set(w), w


def test_pal_factors_refuses_words_past_the_character_guard():
    # a^n has the n factors a..a^n, n(n+1)/2 characters in all.
    # The tree stops at the first symbol whose factors pass the limit: 14142 * 14143 / 2.
    with pytest.raises(ValueError, match=r"^pal_factors is limited to 10{8} .* first 14142 symbols need 100005153$"):
        pal_factors(AB.word("a" * 15000))


@pytest.mark.parametrize("text", [infinite_prefix(300).text, "ab" * 60, "a" * 90], ids=["fibonacci", "periodic", "unary"])
def test_pal_factors_admits_its_guard_and_refuses_one_symbol_more(monkeypatch, text):
    # the running total at the end of text is the length of its distinct palindromic factors
    alphabet = Alphabet(sorted(set(text)))
    limit = sum(map(len, oracle.brute_pal_factor_set(alphabet.word(text))))
    _, unit, cost = GUARDS["pal_factors"]
    monkeypatch.setitem(GUARDS, "pal_factors", (limit, unit, cost))
    assert set(pal_factors(alphabet.word(text)).pal_factors) == oracle.brute_pal_factor_set(alphabet.word(text))
    longer = alphabet.word(text + text[-2])  # a palindrome ends at the new symbol: the total grows
    need = sum(map(len, oracle.brute_pal_factor_set(longer)))
    assert need > limit
    message = (f"pal_factors is limited to {limit} {unit} ({cost} at the limit); "
               f"its first {len(longer)} symbols need {need}")
    with pytest.raises(ValueError) as refused:
        pal_factors(longer)
    assert str(refused.value) == message


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
