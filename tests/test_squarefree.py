"""Square detection, square-free enumeration, Thue-Morse, the codec."""

import random
import sys
import threading
from itertools import product

import numpy as np
import pytest

from fibword import oracle, squarefree
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
from fibword.words import AB, ABC, BINARY, GUARDS, Alphabet, Word

#: Ternary counts s(1)..s(12), re-derived by the oracle below and pinned.
TERNARY_COUNTS = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264]

#: Ternary counts s(1)..s(20) (OEIS A006156).
A006156 = [3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618, 798, 1044, 1392, 1830, 2388]


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


def _repetition_test_words(rng: random.Random):
    """Random, unary and periodic words of length 0-300 over 1-4 letters, and
    square-free and overlap-free words with and without a short tail."""
    for alphabet in (Alphabet("a"), AB, ABC, Alphabet("abcd")):
        for _ in range(25):
            n = rng.randint(0, 300)
            yield Word(alphabet, "".join(rng.choices(alphabet.symbols, k=n)))
            period = "".join(rng.choices(alphabet.symbols, k=rng.randint(1, 4)))
            yield Word(alphabet, (period * n)[:n])
    t = thue_morse_prefix(301).text
    for source in (BINARY.word(t[:300]), ABC.word("".join("abc"[int(y) - int(x) + 1] for x, y in zip(t, t[1:])))):
        for _ in range(4):
            i = rng.randint(0, 200)
            factor = source[i : i + rng.randint(0, 100)]
            yield factor
            yield factor + Word(source.alphabet, "".join(rng.choices(source.alphabet.symbols, k=3)))


def test_repetition_tests_match_oracle_scans():
    rng = random.Random(300)
    for w in _repetition_test_words(rng):
        assert is_square_free(w) == (not oracle.brute_square_scan(w)), w
        assert has_overlap(w) == oracle.brute_overlap_scan(w), w


def test_repetition_tests_are_guarded_by_their_cost():
    limit, unit, cost = GUARDS["repetition_test"]
    assert (limit, unit) == (2**35, "letters times symbols squared")
    # sqrt(2**35 / 2) = 2**17, sqrt(2**35 / 3) = 107019.8; each word opens with aaa, so an admitted test stops at p = 1
    for letters, n in (("ab", 2**17), ("abc", 107019)):
        for test in (is_square_free, has_overlap):
            assert test(ABC.word(("aaa" + letters * n)[:n])) is (test is has_overlap)
            with pytest.raises(ValueError) as refused:
                test(past := ABC.word(("aaa" + letters * n)[: n + 1]))
            assert past._masks is None  # refused before any mask is built
            need = len(letters) * (n + 1) ** 2
            assert str(refused.value) == (
                f"repetition_test is limited to {limit} {unit} ({cost} at the limit); this input needs {need}")
    # the benchmark's and the tests' largest inputs are admitted
    assert not has_overlap(thue_morse_prefix(16000))


def test_one_pass_counts_match_a006156_to_twenty():
    assert [r.s_n for r in brandenburg_table(20)] == A006156
    assert [square_free_count(3, n) for n in (0, 19, 20)] == [1, 1830, 2388]


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


@pytest.mark.parametrize("alphabet", [AB, ABC])
def test_levels_are_the_square_free_extensions_up_to_the_guard(alphabet):
    # is_square_free is the bitmask test, which shares no code with the levels' rfind test
    size = len(alphabet)
    levels = [[w.text for w in enumerate_square_free(size, n)] for n in range(GUARDS["enumeration"][0] + 1)]
    assert levels[0] == [""]
    for below, level in zip(levels, levels[1:]):
        assert all(u < v for u, v in zip(level, level[1:]))
        extended = [p + c for p in below for c in alphabet.symbols]
        assert level == [t for t in extended if is_square_free(Word(alphabet, t))]


@pytest.fixture
def cold_levels(monkeypatch):
    """An empty table of square-free levels for one test; the kept one is put back after it."""
    levels = {size: (("",),) for size in (2, 3)}
    monkeypatch.setattr(squarefree, "_levels", levels)
    return levels


@pytest.mark.parametrize("size", [2, 3])
def test_levels_grow_by_the_missing_lengths_only(cold_levels, size):
    enumerate_square_free(size, 18)
    before = cold_levels[size]
    assert len(before) == 19
    square_free_count(size, 20)
    after = cold_levels[size]
    assert len(after) - len(before) == 2
    assert all(a is b for a, b in zip(after, before))
    counts = [square_free_count(size, n) for n in range(1, 21)]
    assert counts == (A006156 if size == 3 else [2, 2, 2] + [0] * 17)
    assert cold_levels[size] is after  # warm calls build nothing


@pytest.mark.parametrize("size", [2, 3])
def test_cold_and_warm_enumerations_match_the_oracle(cold_levels, size):
    for n in range(16):
        cold_levels[size] = (("",),)
        expected = oracle.brute_square_free_words(size, n)
        assert enumerate_square_free(size, n) == expected  # cold: levels 1..n built
        assert enumerate_square_free(size, n) == expected  # warm
    for n in range(16):
        assert enumerate_square_free(size, n) == oracle.brute_square_free_words(size, n)  # read below the table's end


def test_returned_lists_are_fresh(cold_levels):
    words, rows = enumerate_square_free(3, 10), brandenburg_table(10)
    expected_words, expected_rows = list(words), list(rows)
    words.clear()
    rows.clear()
    assert enumerate_square_free(3, 10) == expected_words
    assert brandenburg_table(10) == expected_rows


def test_racing_threads_read_whole_levels(cold_levels):
    expected = {(size, n): [w.text for w in enumerate_square_free(size, n)] for size in (2, 3) for n in range(21)}
    wrong = []

    def read(size: int, lengths: list[int]) -> None:
        for n in lengths:
            if [w.text for w in enumerate_square_free(size, n)] != expected[size, n]:
                wrong.append((size, n))

    rng = random.Random(34)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            cold_levels.update({size: (("",),) for size in (2, 3)})
            threads = [threading.Thread(target=read, args=(k % 2 + 2, rng.sample(range(21), 21))) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert all(len(levels[n]) == len(expected[size, n]) for size, levels in cold_levels.items() for n in range(len(levels)))


def test_the_guard_is_checked_on_a_warm_table(cold_levels, monkeypatch):
    brandenburg_table(20)
    square_free_count(2, 20)
    assert [len(levels) for levels in cold_levels.values()] == [21, 21]
    _, unit, cost = GUARDS["enumeration"]
    monkeypatch.setitem(GUARDS, "enumeration", (5, unit, cost))
    for function, past in ((enumerate_square_free, (3, 6)), (square_free_count, (2, 6)), (brandenburg_table, (6,))):
        with pytest.raises(ValueError) as refused:
            function(*past)
        assert str(refused.value) == f"enumeration is limited to 5 {unit} ({cost} at the limit); this input needs 6"
    assert len(enumerate_square_free(3, 5)) == 30
    assert square_free_count(2, 5) == 0
    assert [r.s_n for r in brandenburg_table(5)] == A006156[:5]


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
    with pytest.raises(ValueError, match=f"^generation is limited to {GUARDS['generation'][0]} symbols"):
        thue_morse_prefix(GUARDS["generation"][0] + 1)
    with pytest.raises(ValueError, match="nonnegative"):
        thue_morse_prefix(-1)


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
    assert delta_decode(AB.word("")).text == ""
    with pytest.raises(ValueError, match="must start with a$"):
        delta_decode(AB.word("ba"))
    with pytest.raises(ValueError, match="must start with a$"):
        delta_decode(AB.word("b"))
    # the first b past an image abb is stray
    for text, pos in [("abbb", 3), ("aabbbb", 4), ("abbabaabbbbb", 9), ("abbababbbab", 8)]:
        with pytest.raises(ValueError, match=f"^no factorization: stray symbol at position {pos}$"):
            delta_decode(AB.word(text))
    with pytest.raises(ValueError, match="over {a, b}"):
        delta_decode(BINARY.word("01"))


def _split_decode(text: str) -> str:
    # the reference decoder: split at the a's, which leaves one run of b's per image after an empty head
    head, *runs = text.split("a")
    if head:
        raise ValueError("no factorization: the word must start with a")
    symbols = list(map({"bb": "a", "b": "b", "": "c"}.get, runs))
    if None in symbols:  # a run of 3 or more b's: its third b is stray
        k = symbols.index(None)
        pos = k + sum(map(len, runs[:k])) + 3  # past the run's a and two b's
        raise ValueError(f"no factorization: stray symbol at position {pos}")
    return "".join(symbols)


def _outcome(decode, text: str) -> str:
    try:
        return decode(text)
    except ValueError as refusal:
        return f"ValueError: {refusal}"


def test_delta_decode_matches_the_split_decoder():
    # every {a, b} word of length <= 12, then longer drawn words: random ones, which mostly
    # hold a stray b early, and codec images with one symbol flipped or none, which hold it late
    rng = random.Random(37)
    words = ["".join(t) for n in range(13) for t in product("ab", repeat=n)]
    words += ["".join(rng.choices("ab", k=rng.randint(13, 200))) for _ in range(300)]
    for _ in range(300):
        image = list(delta_encode(ABC.word("".join(rng.choices("abc", k=rng.randint(5, 100))))).text)
        if rng.random() < 0.8:
            i = rng.randrange(len(image))
            image[i] = "ab"[image[i] == "a"]
        words.append("".join(image))
    refused = 0
    for text in words:
        expected = _outcome(_split_decode, text)
        assert _outcome(lambda t: delta_decode(AB.word(t)).text, text) == expected, text
        refused += expected.startswith("ValueError")
    assert 0 < refused < len(words)


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
