"""Occurrence counting, density curves, and the integral model."""

import copy
import math
import pickle
import random
import time
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibword import fibonacci, oracle, words
from fibword.cli import main
from fibword.density import (
    DensitySample,
    IntegralParams,
    count_occurrences,
    density,
    exp_sum_approx,
    integral_density,
    letter_density_curve,
    ratio_curve,
    triangle_ratio,
)
from fibword.fibonacci import FIBONACCI_MORPHISM, PHI, PREFIX_CACHE_SYMBOLS, fib, infinite_prefix
from fibword.palindromes import pal_density_table
from fibword.squarefree import has_overlap, is_square_free
from fibword.words import AB, ABC, BINARY, Alphabet, Word, _letter_masks

GRID = [
    (k, tau, a, b)
    for k in (0.5, 1.0, 2.0, 5.0)
    for tau in (0.5, 1.0, 2.0)
    for (a, b) in ((0.0, 1.0), (0.0, 10.0), (1.0, 3.0))
]


def test_count_occurrences_examples():
    assert count_occurrences(BINARY.word("0"), BINARY.word("01001010")) == 5
    assert count_occurrences(BINARY.word("101"), BINARY.word("0100101001001")) == 1
    assert count_occurrences(BINARY.word("1"), BINARY.word("")) == 0


def test_count_occurrences_counts_overlaps():
    assert count_occurrences(AB.word("aa"), AB.word("aaa")) == 2


def test_count_occurrences_guards():
    with pytest.raises(ValueError):
        count_occurrences(BINARY.word(""), BINARY.word("01"))
    with pytest.raises(ValueError):
        count_occurrences(AB.word("a"), BINARY.word("0"))


def test_count_occurrences_matches_oracle_exhaustively():
    for tlen in range(0, 10):
        for tb in product("01", repeat=tlen):
            text = BINARY.word("".join(tb))
            for plen in range(1, min(4, tlen + 1) + 1):
                for pb in product("01", repeat=plen):
                    pattern = BINARY.word("".join(pb))
                    assert count_occurrences(pattern, text) == oracle.brute_count(pattern, text)


def test_count_occurrences_matches_oracle_randomized():
    rng = random.Random(42)
    for _ in range(400):
        text = BINARY.word("".join(rng.choice("01") for _ in range(rng.randint(0, 64))))
        pattern = BINARY.word("".join(rng.choice("01") for _ in range(rng.randint(1, 8))))
        assert count_occurrences(pattern, text) == oracle.brute_count(pattern, text)


#: One to four letters, so unary texts and the complement mask of the last letter are covered.
ALPHABETS = (Alphabet("a"), AB, ABC, Alphabet("abcd"))


def _random_and_periodic_texts(rng: random.Random):
    """Per alphabet, random words and periodic words (unary when the period is
    one letter) of length 0-300."""
    for alphabet in ALPHABETS:
        for _ in range(25):
            n = rng.randint(0, 300)
            yield Word(alphabet, "".join(rng.choices(alphabet.symbols, k=n)))
            period = "".join(rng.choices(alphabet.symbols, k=rng.randint(1, 4)))
            yield Word(alphabet, (period * n)[:n])


def test_count_occurrences_matches_oracle_across_the_64_symbol_boundary():
    # Shift-AND counts patterns up to 64 symbols exactly and confirms longer
    # ones symbol by symbol, so draw pattern lengths on both sides of 64.
    rng = random.Random(64)
    for text in _random_and_periodic_texts(rng):
        for m in (1, 2, 63, 64, 65, rng.randint(1, 130), rng.randint(66, 130)):
            if m <= len(text) and rng.random() < 0.7:  # a factor, so long patterns also occur
                i = rng.randint(0, len(text) - m)
                pattern = text[i : i + m]
            else:
                pattern = Word(text.alphabet, "".join(rng.choices(text.alphabet.symbols, k=m)))
            assert count_occurrences(pattern, text) == oracle.brute_count(pattern, text)


def _all_counts_match_oracle(text: Word, lengths=range(1, 5)) -> None:
    for m in lengths:
        for letters in product(text.alphabet.symbols, repeat=m):
            pattern = Word(text.alphabet, "".join(letters))
            assert count_occurrences(pattern, text) == oracle.brute_count(pattern, text)


def test_letter_masks_stay_on_their_own_word():
    # A counted word keeps its masks; every word made from it builds its own.
    rng = random.Random(27)
    for w in (infinite_prefix(150), BINARY.word("".join(rng.choices("01", k=90)))):
        _all_counts_match_oracle(w)
        masks = _letter_masks(w)
        assert _letter_masks(w) is masks
        v = BINARY.word("".join(rng.choices("01", k=40)))
        for derived in (w[7:100], w[1:], w + v, v + w, w.reverse(), FIBONACCI_MORPHISM.apply(w)):
            _all_counts_match_oracle(derived)
        assert _letter_masks(w) is masks
        assert is_square_free(w) == (not oracle.brute_square_scan(w))
        assert has_overlap(w) == oracle.brute_overlap_scan(w)
    for text in ("abcacbabcbac", "abcbacbcabcba", "aabcacb"):  # square-free or not, over three letters
        w = ABC.word(text)
        _all_counts_match_oracle(w, range(1, 3))
        assert is_square_free(w) == (not oracle.brute_square_scan(w))
        assert has_overlap(w) == oracle.brute_overlap_scan(w)
        assert is_square_free(w[1:]) == (not oracle.brute_square_scan(w[1:]))


def test_pickles_and_copies_of_a_counted_word_carry_no_masks():
    # the twins are equal, but only the counted word holds its letter masks
    text = infinite_prefix(10**4).text
    for counted, twin, pattern in (
        (infinite_prefix(10**4), Word(BINARY, text), BINARY.word("010")),
        (Word(Alphabet("xyz"), "xyzzy" * 2000), Word(Alphabet("xyz"), "xyzzy" * 2000), Word(Alphabet("xyz"), "zy")),
    ):
        expected = count_occurrences(pattern, counted)
        assert counted._masks is not None and twin._masks is None
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert len(pickle.dumps(counted, protocol)) == len(pickle.dumps(twin, protocol))
        for clone in (pickle.loads(pickle.dumps(counted)), copy.copy(counted), copy.deepcopy(counted)):
            assert clone == counted and clone._masks is None
            assert count_occurrences(pattern, clone) == expected == oracle.brute_count(pattern, clone)


# s_0 = 0, s_1 = 01, s_k = s_(k-1) s_(k-2), built without the library
_RECURRENCE = "0"
_NEXT = "01"
while len(_RECURRENCE) < 3 * 10**4:
    _RECURRENCE, _NEXT = _NEXT, _NEXT + _RECURRENCE


def _parsed_masks(text: str) -> dict[str, int]:
    ones = int(text[::-1] or "0", 2)  # bit i set iff symbol i is 1
    return {"1": ones, "0": ((1 << len(text)) - 1) ^ ones}


def _empty_cache(monkeypatch) -> None:
    monkeypatch.setattr(fibonacci, "_kept", words._unchecked_word(BINARY, ""))


def _record_parses(monkeypatch) -> list[int]:
    """The lengths of the nonempty words whose masks infinite_prefix parses from now on."""
    lengths = []

    def recording(w):
        if w._masks is None and len(w):
            lengths.append(len(w))
        return _letter_masks(w)

    monkeypatch.setattr(fibonacci, "_letter_masks", recording)
    return lengths


def test_masks_cut_from_the_kept_prefix_equal_parsed_masks(monkeypatch):
    _empty_cache(monkeypatch)
    cap = PREFIX_CACHE_SYMBOLS
    infinite_prefix(cap)
    kept = fibonacci._kept._masks  # whole as soon as the prefix is kept
    assert kept == _parsed_masks(fibonacci._kept.text)
    for n in (0, 1, 2, 63, 64, 65, 1000, 10**5, cap - 1, cap):
        w = infinite_prefix(n)
        assert w._masks == _parsed_masks(w.text)  # cut with the slice, before any count
        for twin in (w, BINARY.word(w.text)):  # sliced by infinite_prefix or built from its text
            assert _letter_masks(twin) == _parsed_masks(w.text)
    assert _letter_masks(fibonacci._kept) is kept
    # not prefixes of the kept word: another alphabet, another text, a longer text
    text = infinite_prefix(5000).text
    for other in (Word(Alphabet("10"), text), BINARY.word("1" + text[1:]), infinite_prefix(cap + 1)):
        assert _letter_masks(other) == _parsed_masks(other.text)
    assert fibonacci._kept._masks is kept


@pytest.mark.parametrize("warm", [False, True])
def test_counts_in_kept_prefix_slices_match_the_oracle(monkeypatch, warm):
    _empty_cache(monkeypatch)
    if warm:  # every slice below is cut from the kept prefix; cold, the first few grow it
        infinite_prefix(PREFIX_CACHE_SYMBOLS)
    rng = random.Random(28)
    patterns = [BINARY.word(t) for t in ("11", "000")]
    for k in range(1, 9):
        patterns += sorted(oracle.brute_factor_set(BINARY.word(_RECURRENCE[:1000]), k), key=str)
    for n in (1, 2, 3, 5, 64, 65, 377, 2 * 10**4, *rng.sample(range(4, 2 * 10**4), 4)):
        prefix = infinite_prefix(n)
        assert prefix.text == _RECURRENCE[:n]
        for pattern in patterns:
            assert count_occurrences(pattern, prefix) == oracle.brute_count(pattern, prefix)


def test_kept_prefix_masks_grow_with_the_kept_prefix(monkeypatch):
    _empty_cache(monkeypatch)
    size = 10**5
    infinite_prefix(size)
    source, parses = fibonacci._kept, _record_parses(monkeypatch)
    # growing, shrinking and interleaved slices; none parses a symbol
    for n in (5, 64, 65, 1000, 300, 3000, 2999, 40000, 7, size - 1, 12345, size):
        w = infinite_prefix(n)
        for twin in (w, BINARY.word(w.text)):
            assert _letter_masks(twin) == _parsed_masks(w.text)
    assert parses == [] and fibonacci._kept is source
    assert _letter_masks(source) is source._masks == _parsed_masks(source.text)
    infinite_prefix(3 * size)  # a longer kept prefix parses only its new symbols, and the cache drops source
    grown = fibonacci._kept
    assert grown is not source and grown.text.startswith(source.text)
    assert parses == [2 * size] and grown._masks == _parsed_masks(grown.text)
    pattern = BINARY.word("0100")
    for n in (size + 1, 17, 2 * size + 3, 3 * size):
        w = infinite_prefix(n)
        assert _letter_masks(w) == _parsed_masks(w.text)
        assert count_occurrences(pattern, w) == oracle.brute_count(pattern, w)
    infinite_prefix(PREFIX_CACHE_SYMBOLS)
    assert parses == [2 * size, PREFIX_CACHE_SYMBOLS - 3 * size]  # no symbol is parsed twice
    assert fibonacci._kept._masks == _parsed_masks(fibonacci._kept.text)


@pytest.mark.parametrize("grown", ["cold", "partial", "full"])
def test_counts_match_the_oracle_whatever_the_kept_masks_hold(monkeypatch, grown):
    _empty_cache(monkeypatch)
    size = 5000
    if grown != "cold":  # cold, each longer slice below grows the kept prefix; partial, those past 700
        infinite_prefix(reach := 700 if grown == "partial" else size)
        assert len(fibonacci._kept) == reach
    patterns = [BINARY.word(t) for t in ("11", "000")]
    for k in range(1, 7):
        patterns += sorted(oracle.brute_factor_set(BINARY.word(_RECURRENCE[:1000]), k), key=str)
    for n in (1, 2, 3, 64, 65, 699, 700, 701, 1500, 3000, size):
        prefix = infinite_prefix(n)
        for pattern in patterns:
            assert count_occurrences(pattern, prefix) == oracle.brute_count(pattern, prefix)
    assert len(fibonacci._kept) == size and fibonacci._kept._masks == _parsed_masks(fibonacci._kept.text)


@pytest.mark.parametrize("counted_before", [False, True])
def test_a_first_count_parses_only_what_it_needs(monkeypatch, counted_before):
    # right after the kept prefix grows to ~10**6 symbols, a count in a short slice parses
    # nothing (parsing the whole kept prefix took ~5 ms); the growth parses only new symbols
    pattern, times = BINARY.word("010"), []
    for _ in range(3):
        _empty_cache(monkeypatch)
        if counted_before:
            count_occurrences(pattern, infinite_prefix(10**5))
        parses = _record_parses(monkeypatch)
        infinite_prefix(983_656)
        w = infinite_prefix(2 * 10**4)
        masks, start = w._masks, time.perf_counter()
        count = count_occurrences(pattern, w)
        times.append(time.perf_counter() - start)
        assert count == oracle.brute_count(pattern, w) and w._masks is masks
        assert parses == [983_656 - (10**5 if counted_before else 0)]
    assert min(times) < 1e-3


def test_many_letter_masks_use_one_table_and_keep_none():
    alphabet = Alphabet(chr(0x4E00 + i) for i in range(1000))
    slots = {name: getattr(alphabet, name) for name in Alphabet.__slots__}
    rng = random.Random(1000)
    w = Word(alphabet, "".join(rng.choices(alphabet.symbols, k=2000)))
    start = time.perf_counter()
    counts = {c: count_occurrences(Word(alphabet, c), w) for c in alphabet.symbols[::97]}
    assert time.perf_counter() - start < 1.0
    assert counts == {c: w.text.count(c) for c in counts}
    pair = Word(alphabet, w.text[10:12])
    assert count_occurrences(pair, w) == oracle.brute_count(pair, w)
    assert {name: getattr(alphabet, name) for name in Alphabet.__slots__} == slots  # nothing built on it
    assert not hasattr(alphabet, "_mask_tables")


def _find_loop_count(p: str, t: str) -> int:
    count, start = 0, 0
    while (idx := t.find(p, start)) >= 0:
        count, start = count + 1, idx + 1
    return count


@pytest.mark.parametrize("m", [63, 64, 65, 10**3, 10**4])
def test_long_pattern_counts_match_a_find_loop(m):
    prefix = infinite_prefix(10**5)
    for start in (0, 1234, 50_000, 10**5 - m):
        pattern = prefix[start : start + m]
        assert count_occurrences(pattern, prefix) == _find_loop_count(pattern.text, prefix.text) > 0
    absent = BINARY.word("11" + prefix.text[: m - 2])  # 11 never occurs
    assert count_occurrences(absent, prefix) == 0


def test_density_examples():
    assert density(BINARY.word("0"), 8).value == Fraction(5, 8)
    assert density(BINARY.word("11"), 1000).value == 0
    assert density(BINARY.word("101"), 13).value == Fraction(1, 13)
    with pytest.raises(ValueError):
        density(BINARY.word("0"), 0)


def test_density_is_a_probability():
    for pattern in ("0", "1", "01", "010"):
        for n in (1, 2, 13, 100):
            sample = density(BINARY.word(pattern), n)
            assert 0 <= sample.value <= 1
            assert sample.value_real == float(sample.value)


def test_letter_densities_partition():
    for n in (1, 5, 13, 144, 1000):
        zero = density(BINARY.word("0"), n).value
        one = density(BINARY.word("1"), n).value
        assert zero + one == 1


def test_ratio_curve_values():
    curve = ratio_curve(40)
    assert curve[0].value == Fraction(1, 1)
    assert curve[9].value == Fraction(55, 89)
    for sample in curve:
        assert sample.value == Fraction(fib(sample.n), fib(sample.n + 1))


def test_ratio_curve_is_consecutive_fibonacci_in_lowest_terms():
    curve = ratio_curve(10**4)  # the guard
    f, g = 1, 1  # F_1, F_2
    for n, sample in enumerate(curve, start=1):
        assert (sample.n, sample.value.numerator, sample.value.denominator) == (n, f, g)
        assert type(sample.value) is Fraction
        assert sample.count is None
        f, g = g, f + g
    # the samples are Fractions set from their pairs; they must act as the normalised ones do
    last, built = curve[-1].value, Fraction(fib(10**4), fib(10**4 + 1))
    for value in (last, pickle.loads(pickle.dumps(last)), copy.deepcopy(last)):
        assert value == built and hash(value) == hash(built)
        assert str(value) == str(built) and float(value) == float(built)


def test_ratio_curve_alternates_around_the_limit():
    # sign of F_n/F_{n+1} - (phi - 1) via (2p+q)^2 - 5q^2
    for sample in ratio_curve(60):
        p, q = sample.value.numerator, sample.value.denominator
        above = (2 * p + q) ** 2 - 5 * q * q > 0
        assert above == (sample.n % 2 == 1)


def test_ratio_curve_guard():
    with pytest.raises(ValueError):
        ratio_curve(0)
    with pytest.raises(ValueError):
        ratio_curve(10**4 + 1)


def test_letter_density_curve_values():
    curve = letter_density_curve("0", 8)
    assert curve[-1].value == Fraction(5, 8)
    ones = letter_density_curve("1", 8)
    assert ones[-1].value == Fraction(3, 8)
    with pytest.raises(ValueError):
        letter_density_curve("a", 5)


def test_letter_density_curve_matches_fractions_built_here():
    text = infinite_prefix(10**4).text
    for letter in "01":
        count = 0
        for n, sample in enumerate(letter_density_curve(letter, 10**4), start=1):
            count += text[n - 1] == letter
            exact = Fraction(count, n)
            assert (sample.n, sample.count) == (n, count)
            assert sample.value == exact
            assert hash(sample.value) == hash(exact)
            assert str(sample.value) == str(exact)
            assert sample.value_real == float(exact)


def test_counted_and_fraction_samples_are_one_value():
    counted, exact = DensitySample(6, count=4), DensitySample(6, Fraction(2, 3))
    assert counted == exact and hash(counted) == hash(exact)
    assert (counted.count, exact.count) == (4, None)
    assert counted.value_real == exact.value_real == 2 / 3
    assert repr(counted) == repr(exact) == "DensitySample(n=6, value=Fraction(2, 3))"
    assert counted != DensitySample(3, Fraction(2, 3))
    assert len({counted, exact, DensitySample(6, count=5)}) == 2


class _ThreeSlotSample:
    """DensitySample as it was with the slots n, count and _value: the reference the two-slot
    class must read every int count and every Fraction value as."""

    __slots__ = ("n", "count", "_value")

    def __init__(self, n, value=None, count=None):
        if (value is None) == (count is None):
            raise TypeError("DensitySample takes exactly one of value and count")
        self.n, self.count, self._value = n, count, value

    @property
    def value(self):
        return self._value if self.count is None else Fraction(self.count, self.n)

    @property
    def value_real(self):
        return float(self._value) if self.count is None else self.count / self.n

    def __eq__(self, other):
        if not isinstance(other, _ThreeSlotSample):
            return NotImplemented
        return self.n == other.n and self.value == other.value

    def __hash__(self):
        return hash((self.n, self.value))

    def __repr__(self):
        return f"DensitySample(n={self.n!r}, value={self.value!r})"


def _read(sample) -> tuple:
    """Every reading of a sample, with the type of each result, or the exception it raises."""
    readings = []
    for read in (lambda: sample.n, lambda: sample.count, lambda: sample.value, lambda: sample.value_real,
                 lambda: hash(sample), lambda: repr(sample)):
        try:
            result = read()
            readings.append((type(result), result))
        except (TypeError, ValueError, ZeroDivisionError) as err:
            readings.append((type(err),))
    return tuple(readings)


_N = st.integers(0, 10**6)
_COUNTS = st.integers(-(10**20), 10**20)
_VALUES = st.fractions()
_SAMPLE_ARGS = st.tuples(_N, st.just("count"), _COUNTS) | st.tuples(_N, st.just("value"), _VALUES)


@settings(max_examples=300, deadline=None)
@given(_SAMPLE_ARGS, _SAMPLE_ARGS)
@example((6, "count", 4), (6, "value", Fraction(2, 3)))  # one value in both forms
@example((0, "count", 1), (0, "value", Fraction(3, 2)))
def test_two_slot_samples_read_every_input_as_three_slots_did(first, second):
    built = []
    for n, form, given in (first, second):
        new, old = DensitySample(n, **{form: given}), _ThreeSlotSample(n, **{form: given})
        assert _read(new) == _read(old)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(new, protocol)
            assert b"_held" not in data  # the constructor's arguments, not the slots
            assert type(clone := pickle.loads(data)) is DensitySample and _read(clone) == _read(old)
        for clone in (copy.copy(new), copy.deepcopy(new)):
            assert type(clone) is DensitySample and _read(clone) == _read(old)
        built.append((new, old))
    (a, ref_a), (b, ref_b) = built
    for x, y, ref_x, ref_y in ((a, b, ref_a, ref_b), (a, a, ref_a, ref_a)):
        try:
            expected = (ref_x == ref_y, ref_x != ref_y)
        except (TypeError, ValueError, ZeroDivisionError) as err:
            with pytest.raises(type(err)):
                x == y
        else:
            assert (x == y, x != y) == expected
    assert (a == 1) is False and a != "a"


@pytest.mark.parametrize("given", [
    {"value": 1}, {"value": 0.5}, {"count": Fraction(4)}, {"count": True}, {"value": True}, {"count": np.int64(4)},
    {"count": (1,)}, {"value": (1, 2)}, {"value": Fraction(2, 3), "count": 4}, {},
], ids=["int value", "float value", "Fraction count", "bool count", "bool value", "numpy count", "tuple count",
        "tuple value", "both", "neither"])
def test_samples_refuse_all_but_an_int_count_or_a_fraction_value(given):
    with pytest.raises(TypeError, match="^DensitySample takes exactly one of a Fraction value and an int count$"):
        DensitySample(6, **given)


def test_curve_samples_read_as_the_constructor_builds_them():
    # both curves set their samples' slots without __init__
    for sample in letter_density_curve("1", 300) + ratio_curve(300):
        given = {"value": sample.value} if sample.count is None else {"count": sample.count}
        built = DensitySample(sample.n, **given)
        assert _read(sample) == _read(built) and sample == built
        assert _read(pickle.loads(pickle.dumps(sample))) == _read(built)


def test_letter_curve_samples_take_under_96_bytes():
    # n, the count (the int object of an earlier n), two slots and the list's pointer: ~88 bytes
    # on Python 3.11, against ~128 with three slots and a count int of its own
    infinite_prefix(10**5)  # kept, so the prefix built inside is not counted
    tracemalloc.start()
    try:
        curve = letter_density_curve("0", 10**5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(curve) < 96


def test_reading_counted_values_keeps_nothing():
    # The curve's text form reads every value once; a Fraction stored per
    # sample would keep about 1 MB alive here.
    samples = letter_density_curve("0", 10**4)
    tracemalloc.start()
    try:
        assert sum(s.value for s in samples) > 0
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 10**5


def test_sample_counts_match_oracle():
    prefix = infinite_prefix(377)
    for pattern in ("0", "1", "00", "010", "11", "000", "10010"):
        w = BINARY.word(pattern)
        assert density(w, 377).count == oracle.brute_count(w, prefix)
    for length in range(1, 9):
        for w, sample in pal_density_table(377, length).items():
            assert sample.count == oracle.brute_count(w, prefix)


def test_letter_density_curve_guard():
    with pytest.raises(ValueError, match="n_max must be positive"):
        letter_density_curve("0", 0)
    refusal = r"^letter_density_curve is limited to 1000000 samples \(.* at the limit\); this input needs "
    with pytest.raises(ValueError, match=refusal + "1000001$"):
        letter_density_curve("0", 10**6 + 1)
    with pytest.raises(ValueError, match=refusal + "100000000$"):
        letter_density_curve("1", 10**8)


def test_letter_density_approaches_the_golden_limit():
    curve = letter_density_curve("0", 10946)
    assert abs(curve[-1].value_real - (PHI - 1)) < 0.001


def test_integral_analytic_case():
    result = integral_density(IntegralParams(a=0.0, b=math.inf, k=1.0, tau=1.0))
    assert abs(result.quadrature - 0.5) < 1e-12
    assert abs(result.closed_form - 0.5) < 1e-12
    # Gamma(70) / 2**70, once refused because the integrand's x ** 69 overflowed a float; for k = 1
    # (exp(-lam a) - exp(-lam b)) / lam, whose tails once cancelled to a refusal or to 0.0.
    cases = [((0.0, math.inf, 70.0, 1.0), math.gamma(70) / 2**70)]
    for a, b, tau in ((2.0, math.inf, 0.1), (3.0, 6.0, 0.05), (0.0, 2.0, 1.0), (1.0, 3.0, 0.5)):
        lam = 1.0 + 1.0 / tau
        cases.append(((a, b, 1.0, tau), (math.exp(-lam * a) - math.exp(-lam * b)) / lam))
    for (a, b, k, tau), truth in cases:
        r = integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))
        assert abs(r.quadrature - truth) <= 1e-12 * truth, (a, b, k, tau)
        assert abs(r.closed_form - truth) <= 1e-12 * truth, (a, b, k, tau)


def test_integral_degenerate_interval():
    # a == b takes the one path of every interval: an empty quadrature sum, empty closed-form pieces
    for a, k, tau in product((0.0, 5e-324, 1e-300, 2.0, 1e10, 1.7e308), (1e-300, 1.5, 70.0, 171.6),
                             (1e-320, 1.0, 1e300, math.inf)):
        result = integral_density(IntegralParams(a=a, b=a, k=k, tau=tau))
        assert [(v, math.copysign(1.0, v)) for v in vars(result).values()] == [(0.0, 1.0)] * 3, (a, k, tau)


def test_integral_dual_paths_agree_on_grid():
    for k, tau, a, b in GRID:
        r = integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))
        assert abs(r.quadrature - r.closed_form) <= 1e-9 * abs(r.closed_form), (k, tau, a, b)


def test_integral_refuses_routes_that_disagree():
    cases = [
        # k = 1e-300 puts a pole at 0 that quadrature cannot resolve: it returns
        # 706.32 against the closed form Gamma(k) = 1e300.
        (1e-300, 1.0, "quadrature 706.316", "closed form 1e+300, relative gap 1 > 1e-09"),
        # 1/tau overflows to inf, so the closed form reads inf * 0 = nan: a NaN gap is refused too
        (1.0, 1e-320, "quadrature 0.0,", "closed form nan, relative gap nan > 1e-09"),
    ]
    for k, tau, start, end in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the integrator's warning must not escape
            with pytest.raises(ValueError) as err:
                integral_density(IntegralParams(a=0.0, b=1.0, k=k, tau=tau))
        message = str(err.value)
        assert message.startswith(f"integral routes disagree: {start}")
        assert message.endswith(end)


def _check_routes_against_mpmath(a, b, k, tau):
    mpmath = pytest.importorskip("mpmath")

    def model(lam):  # the oriented integral of x**(k-1) exp(-lam x) from a to b
        # A difference of two lower or two upper gammas, as no tail cancels at 60 digits;
        # mpmath's gammainc(k, z1, z2) reads 0.0 for narrow intervals in the upper tail.
        z1, z2 = lam * a, lam * mpmath.mpf(b)
        if min(z1, z2) < k:
            return (mpmath.gammainc(k, 0, z2) - mpmath.gammainc(k, 0, z1)) / lam**k
        return (mpmath.gammainc(k, z1) - mpmath.gammainc(k, z2)) / lam**k

    r = integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))  # a refusal fails the test
    assert math.isfinite(r.quadrature_error), r
    with mpmath.workdps(60):
        exact = float(model(1 + 1 / mpmath.mpf(tau)))
        # The estimate bounds the integration error of the integrand evaluated, whose lam is
        # the double 1.0 + 1.0/tau; the rounding of the returned double comes on top.
        as_evaluated = model(mpmath.mpf(1.0 + 1.0 / tau))
        quadrature_error = float(abs(r.quadrature - as_evaluated))
    for route in (r.quadrature, r.closed_form):
        assert abs(route - exact) <= 1e-12 * max(abs(exact), 1e-300), (route, exact)
    assert quadrature_error <= r.quadrature_error + math.ulp(float(as_evaluated))


def test_integral_routes_match_mpmath():
    # verify's grid, the golden inputs, and inputs once refused (an overflow, two tail cancellations)
    cases = [(a, b, k, tau) for k, tau, a, b in GRID]
    cases += [(0.0, math.inf, 1.0, 1.0), (1.0, 3.0, 2.0, 0.5)]
    cases += [(0.0, math.inf, 70.0, 1.0), (2.0, math.inf, 1.0, 0.1), (3.0, 6.0, 1.0, 0.05)]
    # near the largest float: the rounding floor once overflowed (an inf estimate, or a refusal)
    cases += [(0.0, math.inf, 169.5, 100.0), (0.0, math.inf, 170.0, 100.0)]
    for a, b, k, tau in cases:
        _check_routes_against_mpmath(a, b, k, tau)


def test_integral_admits_node_sums_past_the_largest_float():
    # Each node's term is finite, but a level's sum of them, ~2**level times the integral
    # (4.8e306 to 1.7e307 here), is not: these were refused with quadrature inf.
    for k, tau in [(171.0, 1000.0), (171.0, math.inf), (171.25, 100.0), (171.5, 100.0)]:
        _check_routes_against_mpmath(0.0, math.inf, k, tau)
    # Level 0's estimate itself (~1.86e308) passes the largest float; later levels do not.
    _check_routes_against_mpmath(147.94, 193.26, 171.6, math.inf)


@settings(deadline=None)
@given(
    st.floats(0, 20),
    st.one_of(st.floats(0, 40), st.just(math.inf), st.sampled_from([1e3, 1e10, 1e100, 1e308])),
    st.floats(0.05, 60),
    st.floats(0.01, 100),
)
# a narrow interval (relative width 1e-6) and a subnormal end, both once refused; an end near 0
@example(13.738, 13.738014, 13.67, 32.0)
@example(5e-324, 0.0, 0.5, 2.0)
@example(1.0, 6.406257208443316e-237, 1.0, 1.0)
# the quadrature: a narrow interval below 1, a subnormal b, and a tiny a above the pole of k < 1
@example(0.9711759857571778, 0.9711839383946227, 0.2955813586272672, 25.419714314607827)
@example(0.0, 5e-324, 0.7119072771682641, 34.94700227782895)
@example(2.426822896184117e-142, 35.83286996135912, 0.090132014665941, 0.12843329974695733)
@example(1.215844744415506e-130, math.inf, 0.10058233149079322, 0.015258425817592564)
# an interval far wider than the integrand's scale: e**-100 / 2, once refused
@example(50.0, 1e308, 1.0, 1.0)
def test_integral_routes_match_mpmath_on_drawn_inputs(a, b, k, tau):
    _check_routes_against_mpmath(a, b, k, tau)


def test_integral_orientation_flips_sign():
    fwd = integral_density(IntegralParams(a=0.0, b=2.0, k=1.0, tau=1.0))
    rev = integral_density(IntegralParams(a=2.0, b=0.0, k=1.0, tau=1.0))
    assert abs(fwd.quadrature + rev.quadrature) < 1e-12
    assert abs(fwd.closed_form + rev.closed_form) < 1e-12
    assert rev.closed_form < 0


def test_integral_parameter_validation():
    with pytest.raises(ValueError):
        IntegralParams(a=0.0, b=1.0, k=0.0, tau=1.0)
    with pytest.raises(ValueError):
        IntegralParams(a=0.0, b=1.0, k=1.0, tau=-2.0)
    with pytest.raises(ValueError):
        IntegralParams(a=math.inf, b=1.0, k=1.0, tau=1.0)
    with pytest.raises(ValueError, match="k must be finite"):
        IntegralParams(a=0.0, b=1.0, k=math.inf, tau=1.0)
    with pytest.raises(ValueError, match="b must be nonnegative"):
        IntegralParams(a=0.0, b=-1.0, k=1.0, tau=1.0)


def test_integral_admits_infinite_tau():
    # tau = +inf gives lambda = 1: the integral of exp(-x) from 0 to 1.
    r = integral_density(IntegralParams(a=0.0, b=1.0, k=1.0, tau=math.inf))
    assert abs(r.closed_form - (1.0 - math.exp(-1.0))) < 1e-12
    assert abs(r.quadrature - r.closed_form) < 1e-12


def test_exp_sum_values():
    assert exp_sum_approx(0) == 1.0
    assert abs(exp_sum_approx(30) - 8.9e-9) < 1e-10
    with pytest.raises(ValueError):
        exp_sum_approx(-1)


def test_exp_sum_is_decreasing_and_bounded():
    prev = 1.0
    for n in range(0, 100):
        v = exp_sum_approx(n)
        assert v <= 1.0
        if n > 0:
            assert v < prev
        prev = v
    assert all(exp_sum_approx(n) < 1e-6 for n in range(30, 60))


def test_triangle_ratio_values():
    assert abs(triangle_ratio(1) - math.sqrt(2)) < 1e-12
    assert abs(triangle_ratio(30) - PHI) < 1e-8
    with pytest.raises(ValueError):
        triangle_ratio(0)


def test_triangle_ratio_error_shrinks():
    prev = abs(triangle_ratio(10) - PHI)
    for n in range(11, 41):
        cur = abs(triangle_ratio(n) - PHI)
        assert cur <= prev
        prev = cur


def test_samples_to_csv_shape(capsys):
    # the ratio curve's sample at n = 2 is 1/2
    assert main(["curve", "--n-max", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,value"
    assert lines[2] == "2,0.5"


def test_samples_to_json_shape(capsys):
    import json

    # the ratio curve's sample at n = 3 is 2/3
    assert main(["curve", "--n-max", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[2:] == [{"n": 3, "numerator": 2, "denominator": 3, "value": 2 / 3}]
