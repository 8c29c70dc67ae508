"""Alphabets, words, morphisms, and the factor/subsequence predicates."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibword import oracle
from fibword.catalan import catalan_table, fib_word_at_catalan, limit_function_g
from fibword.density import letter_density_curve, ratio_curve
from fibword.fibonacci import FIBONACCI_MORPHISM, FibSeeds, fib_word, infinite_prefix
from fibword.fuzzy import fuzzy_fib_word
from fibword.palindromes import pal_factors, sp_count
from fibword.squarefree import (
    DELTA_MORPHISM,
    THUE_MORSE_MORPHISM,
    brandenburg_table,
    enumerate_square_free,
    has_overlap,
    is_square_free,
    square_free_count,
    thue_morse_prefix,
)
from fibword.words import (
    AB,
    ABC,
    BINARY,
    GUARDS,
    Alphabet,
    Morphism,
    Word,
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


def test_word_rejects_a_foreign_symbol_anywhere():
    text = "01" * 50_000
    for i in (0, len(text) // 2, len(text) - 1):
        with pytest.raises(ValueError) as err:
            Word(BINARY, text[:i] + "2" + text[i + 1 :])
        assert str(err.value) == "symbols ['2'] not in Alphabet('01')"
    assert Word(BINARY, "").text == ""


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
    assert (BINARY.word("") + BINARY.word("01")).text == "01"


def test_concat_reproduces_recurrence_step():
    assert (BINARY.word("01") + BINARY.word("0")).text == "010"


def test_concat_of_consecutive_words():
    # direct sequence join of the listed length-8 and length-5 words
    assert (BINARY.word("01001010") + BINARY.word("01001")).text == "0100101001001"


def test_concat_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        BINARY.word("0") + AB.word("a")


def test_letter_count_examples():
    w = AB.word("abaab")
    assert letter_count(w, "a") == 3
    assert letter_count(w, "b") == 2
    assert letter_count(AB.word(""), "a") == 0
    with pytest.raises(ValueError):
        letter_count(w, "c")


def test_apply_morphism_examples():
    assert FIBONACCI_MORPHISM.apply(BINARY.word("0")).text == "01"
    assert FIBONACCI_MORPHISM.apply(BINARY.word("010")).text == "01001"
    assert DELTA_MORPHISM.apply(ABC.word("abc")).text == "abbaba"


def test_apply_morphism_rejects_foreign_word():
    with pytest.raises(ValueError):
        FIBONACCI_MORPHISM.apply(AB.word("ab"))


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
    # a, b, aa, bb, aaaa: one step without growth, one with, one without, and it grows again
    assert Morphism(AB, AB, {"a": "b", "b": "aa"}).fixed_point_prefix("a", 4) == "aaaa"
    with pytest.raises(ValueError):
        FIBONACCI_MORPHISM.fixed_point_prefix("a", 5)  # seed outside the domain
    with pytest.raises(ValueError):
        DELTA_MORPHISM.fixed_point_prefix("a", 5)  # codomain is not the domain
    for morphism in (FIBONACCI_MORPHISM, THUE_MORSE_MORPHISM):  # refused before allocating
        with pytest.raises(ValueError, match=f"generation is limited to {GUARDS['generation'][0]} symbols"):
            morphism.fixed_point_prefix("0", GUARDS["generation"][0] + 1)


def test_fixed_point_prefix_admits_exactly_the_guard(monkeypatch):
    _, unit, cost = GUARDS["generation"]
    monkeypatch.setitem(GUARDS, "generation", (100, unit, cost))  # read at each call, and named in the message
    for morphism, word in ((FIBONACCI_MORPHISM, infinite_prefix), (THUE_MORSE_MORPHISM, thue_morse_prefix)):
        assert morphism.fixed_point_prefix("0", 100) == word(100).text
        with pytest.raises(ValueError) as refused:
            morphism.fixed_point_prefix("0", 101)
        assert str(refused.value) == f"generation is limited to 100 symbols ({cost} at the limit); this input needs 101"


def _w3(zeros: int) -> FibSeeds:
    # w_3 = w_2 w_1 = 0^zeros 1 under these seeds: one symbol longer than w_2
    return FibSeeds(BINARY.word("1"), BINARY.word("0" * zeros))


#: guard -> (the limit patched in, and per entry point: (function, args at the limit, args past it, need, read));
#: past the limit is one symbol more, but for fib_word_at_catalan, whose next index C_5 is 42
BOUNDARIES = {
    "generation": (100, [(FIBONACCI_MORPHISM.fixed_point_prefix, ("0", 100), ("0", 101), 101, None),
                         (thue_morse_prefix, (100,), (101,), 101, None),
                         (fib_word, (3, _w3(99)), (3, _w3(100)), 101, None)]),
    # a^128 is the 64-symbol block a^64, sliced twice, and one factor; a^129 slices the one-symbol block a
    "distinct_factors": (129, [(distinct_factors, (AB.word("a" * 128), 1), (AB.word("a" * 129), 1), 130, 129)]),
    # a^10 has the factors a..a^10, 55 characters; the b after them adds one
    "pal_factors": (55, [(pal_factors, (AB.word("a" * 10),), (AB.word("a" * 10 + "b"),), 56, 11)]),
    "sp_count": (10, [(sp_count, (AB.word("ab" * 5),), (AB.word("ab" * 5 + "a"),), 11, None)]),
    # abcab repeats a and b: 2 * 6 slots; the c after them repeats c too
    "sp_slots": (12, [(sp_count, (ABC.word("abcab"),), (ABC.word("abcabc"),), 21, None)]),
    "enumeration": (5, [(enumerate_square_free, (3, 5), (3, 6), 6, None),
                        (square_free_count, (2, 5), (2, 6), 6, None),
                        (brandenburg_table, (5,), (6,), 6, None)]),
    # two letters times 50**2 symbols squared; one symbol more needs 2 * 51**2
    "repetition_test": (5000, [(is_square_free, (thue_morse_prefix(50),), (thue_morse_prefix(51),), 5202, None),
                               (has_overlap, (thue_morse_prefix(50),), (thue_morse_prefix(51),), 5202, None)]),
    "fuzzy_fib_word": (5, [(fuzzy_fib_word, (5, 0.5, 0.5), (6, 0.5, 0.5), 6, None)]),
    "ratio_curve": (10, [(ratio_curve, (10,), (11,), 11, None)]),
    "letter_density_curve": (10, [(letter_density_curve, ("0", 10), ("0", 11), 11, None)]),
    "catalan_table": (5, [(catalan_table, (5,), (6,), 6, None)]),
    "limit_function_g": (5, [(limit_function_g, (5,), (6,), 6, None)]),
    "fib_word_at_catalan": (14, [(fib_word_at_catalan, (4,), (5,), 42, None)]),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_every_guard_admits_its_limit_and_refuses_past_it_naming_the_patched_limit(monkeypatch, name):
    assert BOUNDARIES.keys() == GUARDS.keys()
    limit, entry_points = BOUNDARIES[name]
    _, unit, cost = GUARDS[name]
    monkeypatch.setitem(GUARDS, name, (limit, unit, cost))
    for function, at, past, need, read in entry_points:
        function(*at)
        with pytest.raises(ValueError) as refused:
            function(*past)
        needs = "this input needs" if read is None else f"its first {read} symbols need"
        assert str(refused.value) == f"{name} is limited to {limit} {unit} ({cost} at the limit); {needs} {need}"


def test_fixed_point_prefix_matches_repeated_apply():
    # Letters grow at different rates, and the image of c keeps its length
    # for one step (c -> b) before it grows.
    phi = Morphism(ABC, ABC, {"a": "abc", "b": "ac", "c": "b"})
    for seed in "abc":
        iterates = [ABC.word(seed)]
        while len(iterates[-1]) < 500:
            iterates.append(phi.apply(iterates[-1]))
        for length in range(501):
            expected = next(w for w in iterates if len(w) >= length).text[:length]
            assert phi.fixed_point_prefix(seed, length) == expected, (seed, length)


def test_thue_morse_prefix_is_the_parity_of_binary_ones():
    parity = "".join(str(bin(i).count("1") % 2) for i in range(4096))
    for length in range(4097):
        assert thue_morse_prefix(length).text == parity[:length]


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


@pytest.mark.parametrize("alpha", [Alphabet("ba"), Alphabet("cab")])
def test_sort_key_orders_like_rank_tuples(alpha):
    rng = random.Random(6)
    texts = ["".join(rng.choices(alpha.symbols, k=rng.randint(0, 6))) for _ in range(400)]
    texts += [t[:i] for t in texts[:100] for i in range(len(t))]  # proper prefixes
    rng.shuffle(texts)
    by_ranks = sorted(texts, key=lambda t: tuple(alpha.rank(c) for c in t))
    assert sorted(texts, key=alpha.sort_key) == by_ranks


@given(binary_texts, binary_texts)
def test_concat_length_and_counts_are_additive(s, t):
    u, v = BINARY.word(s), BINARY.word(t)
    w = u + v
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
    lhs = FIBONACCI_MORPHISM.apply(u + v)
    rhs = FIBONACCI_MORPHISM.apply(u) + FIBONACCI_MORPHISM.apply(v)
    assert lhs == rhs


def test_every_factor_is_a_scattered_subword():
    # exhaustive over binary words up to length 12, every factor
    for n in range(1, 13):
        for bits in product("01", repeat=n):
            x = BINARY.word("".join(bits))
            for k in range(0, n + 1):
                for v in distinct_factors(x, k):
                    assert is_scattered_subword(v, x)


def test_distinct_factors_match_oracle_across_block_boundaries():
    # distinct_factors reads the text in blocks of 64 windows: every k up to n + 1 meets every
    # residue of n - k mod 64, and k runs past the block width and past n
    rng = random.Random(23)
    words = []
    for n in [*range(151), 191, 192, 193, 255, 256, 257, 300]:
        alpha = Alphabet("badc"[: n % 4 + 1])  # "ba...": not in code-point order
        words.append(alpha.word("".join(rng.choices(alpha.symbols, k=n))))
    for n in (63, 64, 65, 127, 128, 129, 200, 300):
        words += [infinite_prefix(n), thue_morse_prefix(n), AB.word("a" * n)]
    for w in words:
        for k in range(len(w) + 2):
            mine = [v.text for v in distinct_factors(w, k)]
            assert set(mine) == {v.text for v in oracle.brute_factor_set(w, k)}, (w, k)
            keys = [w.alphabet.sort_key(t) for t in mine]
            assert keys == sorted(set(keys)), (w, k)  # in alphabet order, no repeats


def test_distinct_factors_refuses_words_past_the_character_guard():
    # 17,711 distinct factors of 2*10**4 symbols would be held; with every block of 2*10**4 + 63
    # symbols sliced, the count passes 10**8 at the block that ends at symbol 24,927, whatever the hash seed
    refusal = r"^distinct_factors is limited to 10{8} .*; its first 24927 symbols need 100104851$"
    with pytest.raises(ValueError, match=refusal):
        distinct_factors(infinite_prefix(4 * 10**4), 2 * 10**4)


def _held_by_distinct_factors(text: str, k: int) -> int:
    # the guard's running total at the end of text: every 64-window block sliced plus distinct factors
    blocks = [text[s : s + k + 63] for s in range(0, len(text) - k + 1, 64)]
    return sum(map(len, blocks)) + k * len({text[i : i + k] for i in range(len(text) - k + 1)})


@pytest.mark.parametrize("k", [1, 3, 40])
def test_distinct_factors_admits_its_guard_and_refuses_one_symbol_more(monkeypatch, k):
    text = "".join(random.Random(k).choices("01", k=150))
    limit = _held_by_distinct_factors(text, k)
    _, unit, cost = GUARDS["distinct_factors"]
    monkeypatch.setitem(GUARDS, "distinct_factors", (limit, unit, cost))
    assert distinct_factors(BINARY.word(text), k) == sorted(oracle.brute_factor_set(BINARY.word(text), k))
    longer = text + "1"
    need = _held_by_distinct_factors(longer, k)
    assert need > limit
    message = (f"distinct_factors is limited to {limit} {unit} ({cost} at the limit); "
               f"its first {len(longer)} symbols need {need}")
    with pytest.raises(ValueError) as refused:
        distinct_factors(BINARY.word(longer), k)
    assert str(refused.value) == message


def test_distinct_factors_admits_a_long_factor_of_a_unary_word():
    assert distinct_factors(AB.word("a" * 10**5), 5 * 10**4) == [AB.word("a" * 5 * 10**4)]  # 3.9*10**7 sliced


def test_distinct_factors_charges_a_block_each_time_it_is_sliced():
    # a^(10**6) at k = 5*10**5 is one block sliced ~7,800 times: refused about halfway, not after the last slice
    refusal = r"^distinct_factors is limited to 10{8} .*; its first 512735 symbols need 100012537$"
    with pytest.raises(ValueError, match=refusal):
        distinct_factors(AB.word("a" * 10**6), 5 * 10**5)


def test_factor_complexity_matches_oracle():
    prefix = infinite_prefix(610)
    for k in range(1, 16):
        mine = distinct_factors(prefix, k)
        assert len(mine) == k + 1  # Sturmian complexity
        assert set(mine) == oracle.brute_factor_set(prefix, k)
