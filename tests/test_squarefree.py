"""Square detection, square-free enumeration, Thue-Morse, the codec."""

import random
from itertools import product

import numpy as np
import pytest

from fibword import oracle
from fibword.cli import main
from fibword.squarefree import (
    brandenburg_table,
    delta_decode,
    delta_encode,
    enumerate_square_free,
    has_overlap,
    is_square_free,
    square_free_count,
    thue_morse_prefix,
)
from fibword.words import AB, ABC, BINARY, Word

#: Ternary counts s(1)..s(12), re-derived by the oracle below and pinned.
TERNARY_COUNTS = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264]


def test_is_square_free_examples():
    assert is_square_free(AB.word("aba"))
    assert not is_square_free(AB.word("aa"))
    assert is_square_free(ABC.word("abcacb"))
    assert is_square_free(AB.word(""))


def test_is_square_free_matches_oracle_binary_exhaustive():
    for n in range(1, 13):
        for bits in product("ab", repeat=n):
            w = AB.word("".join(bits))
            assert is_square_free(w) == (not oracle.brute_square_scan(w))


def test_is_square_free_matches_oracle_ternary():
    # exhaustive to length 9, seeded random up to length 12
    for n in range(1, 10):
        for bits in product("abc", repeat=n):
            w = ABC.word("".join(bits))
            assert is_square_free(w) == (not oracle.brute_square_scan(w))
    rng = random.Random(5)
    for _ in range(2000):
        w = ABC.word("".join(rng.choice("abc") for _ in range(rng.randint(10, 12))))
        assert is_square_free(w) == (not oracle.brute_square_scan(w))


def test_binary_square_free_words_are_exactly_six():
    pooled = [w.text for n in (1, 2, 3) for w in enumerate_square_free(2, n)]
    assert pooled == ["a", "b", "ab", "ba", "aba", "bab"]
    assert square_free_count(2, 4) == 0
    assert square_free_count(2, 10) == 0


def test_ternary_counts():
    assert square_free_count(3, 1) == 3
    assert square_free_count(3, 5) == 30
    assert [square_free_count(3, n) for n in range(1, 13)] == TERNARY_COUNTS


def test_enumeration_matches_brute_backtracking():
    for size in (2, 3):
        for n in range(0, 9):
            assert enumerate_square_free(size, n) == oracle.brute_square_free_words(size, n)


def test_enumeration_is_lexicographic_and_square_free():
    words = enumerate_square_free(3, 7)
    texts = [w.text for w in words]
    assert texts == sorted(texts)
    assert all(is_square_free(w) for w in words)


def test_enumeration_extension_consistency():
    # extending every (n-1)-word by every letter and re-filtering gives the n-set
    for n in range(2, 9):
        prev = enumerate_square_free(3, n - 1)
        rebuilt = [
            w
            for p in prev
            for c in "abc"
            if is_square_free(w := Word(ABC, p.text + c))
        ]
        assert sorted(rebuilt) == enumerate_square_free(3, n)


def test_count_growth_is_ratio_bounded():
    counts = [square_free_count(3, n) for n in range(1, 14)]
    for a, b in zip(counts, counts[1:]):
        assert b <= 3 * a


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_square_free(4, 3)
    with pytest.raises(ValueError):
        enumerate_square_free(3, 21)
    with pytest.raises(ValueError):
        enumerate_square_free(3, -1)


def test_bound_table_flags():
    rows = brandenburg_table(12)
    assert [r.s_n for r in rows] == TERNARY_COUNTS
    # the printed lower bound fails at n = 1, 2 (6*1.032 = 6.19 > 3)
    assert [r.lower_holds for r in rows] == [False, False] + [True] * 10
    # the printed upper bound dips under the true count at n = 5, 6, 7
    assert [r.upper_holds for r in rows] == [True] * 4 + [False] * 3 + [True] * 5
    n5 = rows[4]
    assert n5.s_n == 30 and 29.9 < n5.upper < 29.95


def test_bound_table_recomputes_cleanly():
    for r in brandenburg_table(8):
        assert r.lower == 6 * 1.032**r.n
        assert r.upper == 6 * 1.379**r.n
        assert r.lower_holds == (r.lower <= r.s_n)
        assert r.upper_holds == (r.s_n <= r.upper)


def test_bound_table_csv_shape(capsys):
    assert main(["squarefree", "--n-max", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,s_n,lower,upper,lower_holds,upper_holds"
    assert lines[1].startswith("1,3,") and lines[1].endswith("false,true")


def test_thue_morse_prefixes():
    assert thue_morse_prefix(0).text == ""
    assert thue_morse_prefix(4).text == "0110"
    assert thue_morse_prefix(8).text == "01101001"
    with pytest.raises(ValueError):
        thue_morse_prefix(2**20 + 1)


def _naive_overlap_scan(text: str) -> bool:
    # check every (start, period) window directly, vectorized per period
    arr = np.frombuffer(text.encode(), dtype=np.uint8)
    n = len(arr)
    for p in range(1, (n - 1) // 2 + 1):
        eq = (arr[:-p] == arr[p:]).astype(np.int32)
        if len(eq) < p + 1:
            break
        window_sums = np.convolve(eq, np.ones(p + 1, dtype=np.int32), mode="valid")
        if (window_sums == p + 1).any():
            return True
    return False


def test_thue_morse_is_overlap_free():
    for k in range(1, 13):
        w = thue_morse_prefix(2**k)
        assert not has_overlap(w)
        assert not _naive_overlap_scan(w.text)


def test_fibonacci_word_has_overlaps():
    # sanity: overlap-freeness is special; 0100101001001... contains 01001·01001·0
    from fibword.fibonacci import infinite_prefix

    assert has_overlap(infinite_prefix(100))


def test_has_overlap_agrees_with_oracle():
    rng = random.Random(11)
    for _ in range(300):
        text = "".join(rng.choice("01") for _ in range(rng.randint(0, 50)))
        w = BINARY.word(text)
        assert has_overlap(w) == oracle.brute_overlap_scan(w)
    for _ in range(200):
        text = "".join(rng.choice("abc") for _ in range(rng.randint(0, 40)))
        w = ABC.word(text)
        assert has_overlap(w) == oracle.brute_overlap_scan(w)


def test_ternary_square_free_word_has_no_overlap():
    # first differences of Thue-Morse, -1/0/1 written a/b/c: square-free
    t = thue_morse_prefix(1001).text
    w = ABC.word("".join("abc"[int(y) - int(x) + 1] for x, y in zip(t, t[1:])))
    assert len(w) == 1000 and not oracle.brute_square_scan(w)
    assert not has_overlap(w)
    longer = w + ABC.word("abcabca")
    assert has_overlap(longer) and oracle.brute_overlap_scan(longer)


def test_delta_decode_examples():
    assert delta_decode(AB.word("abbaba")).text == "abc"
    assert delta_decode(AB.word("a")).text == "c"
    with pytest.raises(ValueError):
        delta_decode(AB.word("ba"))
    with pytest.raises(ValueError):
        delta_decode(AB.word("abbb"))
    with pytest.raises(ValueError):
        delta_decode(BINARY.word("01"))


def test_delta_round_trip_randomized():
    rng = random.Random(23)
    for _ in range(300):
        source = ABC.word("".join(rng.choice("abc") for _ in range(rng.randint(1, 100))))
        image = delta_encode(source)
        assert delta_decode(image) == source
        assert delta_encode(delta_decode(image)) == image


def test_delta_factorization_is_unique_on_images():
    rng = random.Random(29)
    for _ in range(100):
        source = ABC.word("".join(rng.choice("abc") for _ in range(rng.randint(1, 40))))
        image = delta_encode(source)
        assert oracle.delta_factorizations(image) == [source]
