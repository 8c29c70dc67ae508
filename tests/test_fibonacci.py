"""Fibonacci numbers, Binet values, and the two word-construction routes."""

import math
import random
from fractions import Fraction

import pytest

from fibword import fibonacci, words
from fibword.fibonacci import (
    FIBONACCI_MORPHISM,
    _PSI,
    _SQRT5,
    PHI,
    PREFIX_CACHE_SYMBOLS,
    REFERENCE_SEEDS,
    FibSeeds,
    fib,
    fib_binet,
    fib_word,
    golden_ratio_bounds,
    infinite_prefix,
    k_fib,
    k_fib_ratio,
    nth_symbol,
)
from fibword.words import AB, BINARY, GUARDS, Word

SIZE = GUARDS["generation"][0]


def test_fib_seed_values():
    assert fib(1) == 1
    assert fib(2) == 1
    assert fib(10) == 55


def test_fib_matches_published_run_counts():
    assert fib(22) == 17711
    assert fib(21) == 10946
    assert fib(23) == 28657


def test_fib_rejects_index_zero():
    with pytest.raises(ValueError):
        fib(0)


def test_fib_agrees_with_plain_recurrence():
    a, b = 1, 1
    for n in range(1, 300):
        assert fib(n) == a
        a, b = b, a + b


def test_fib_binet_small_values():
    assert abs(fib_binet(1) - 1.0) < 1e-12
    assert abs(fib_binet(22) - 17711) < 0.5


def test_fib_binet_sweep_rounds_to_exact():
    for n in range(1, 71):
        assert abs(fib_binet(n) - fib(n)) < 0.5


def test_fib_binet_guards():
    with pytest.raises(ValueError):
        fib_binet(71)
    with pytest.raises(ValueError):
        fib_binet(0)


def test_k_fib_reduces_to_ordinary_fibonacci():
    assert k_fib(1, 10) == 55
    assert [k_fib(1, n) for n in range(1, 11)] == [fib(n) for n in range(1, 11)]


def test_k_fib_k2_values():
    assert [k_fib(2, n) for n in range(6)] == [0, 1, 2, 5, 12, 29]


def test_k_fib_guards():
    with pytest.raises(ValueError):
        k_fib(0, 3)
    with pytest.raises(ValueError):
        k_fib(2, -1)


def test_k_fib_ratio_converges_to_metallic_root():
    # positive root of a**2 - 2a - 1 = 0 is 1 + sqrt(2)
    assert abs(k_fib_ratio(2, 40) - (1 + math.sqrt(2))) < 1e-9
    with pytest.raises(ValueError):
        k_fib_ratio(2, 1)


def test_golden_constants():
    assert abs(PHI**2 - (PHI + 1)) < 1e-12
    assert _PSI == 1 - PHI
    assert abs(_SQRT5**2 - 5) < 1e-12


def test_golden_ratio_bounds_bracket_phi():
    lo, hi = golden_ratio_bounds()
    assert lo < hi
    assert hi - lo == Fraction(1, 2 * 10**40)
    assert abs(float(lo) - PHI) < 1e-15


def test_fib_word_listing():
    assert fib_word(1).text == "1"
    assert fib_word(2).text == "0"
    assert fib_word(3).text == "01"
    assert fib_word(4).text == "010"
    assert fib_word(5).text == "01001"
    assert fib_word(6).text == "01001010"
    assert fib_word(7).text == "0100101001001"


def test_fib_word_lengths_follow_fib():
    for n in range(1, 31):
        assert len(fib_word(n)) == fib(n)


def test_fib_word_recurrence_across_paths():
    for n in range(3, 26):
        assert fib_word(n) == fib_word(n - 1) + fib_word(n - 2)


def test_fib_word_matches_recurrence_on_random_seeds():
    rng = random.Random(7)
    for _ in range(200):
        first, second = ("".join(rng.choices("01", k=rng.randint(1, 4))) for _ in range(2))
        seeds = FibSeeds(Word(BINARY, first), Word(BINARY, second))
        words = [first, second]
        while len(words) < 18:
            words.append(words[-1] + words[-2])
        for n in range(1, 19):
            assert fib_word(n, seeds).text == words[n - 1], (first, second, n)


def test_fib_word_guards():
    with pytest.raises(ValueError):
        fib_word(0)
    with pytest.raises(ValueError):
        fib_word(60)  # fib(60) ~ 1.5e12 symbols
    # The smallest refused indices: F_44 > 2**29 >= F_43, and under the
    # reference seeds |w_n| = F_(n+1).  Admitted indices near the guard
    # would allocate gigabytes, so none is called here.
    assert fib(44) > SIZE >= fib(43)
    with pytest.raises(ValueError, match=f"generation is limited to {SIZE} symbols .* needs {fib(44)}$"):
        fib_word(44)
    with pytest.raises(ValueError, match=f"generation is limited to {SIZE} symbols .* needs {fib(44)}$"):
        fib_word(43, REFERENCE_SEEDS)
    # A refusal states the input's own length, not the first one past the guard
    with pytest.raises(ValueError, match=f"generation is limited to {SIZE} symbols .* needs {fib(60)}$"):
        fib_word(60)
    # F_(10**9) is an ~83 MB integer: the refusal states its digit count instead, 10**9 log10(phi) - log10(sqrt 5)
    # = 208987639.90 (to 50 digits, from mpmath), and never computes it
    with pytest.raises(ValueError, match=f"generation is limited to {SIZE} symbols .* a length of 208987640 digits$"):
        fib_word(10**9)


@pytest.mark.parametrize("n", [101, 102, 1000, 10**4, 10**5])
def test_fib_word_refusal_past_w_100_states_the_digit_count(n):
    # |w_n| = F_n under the default seeds and F_(n+1) under the reference seeds; w_100 and before are exact
    for seeds, length in ((fibonacci.DEFAULT_SEEDS, fib(n)), (REFERENCE_SEEDS, fib(n + 1))):
        digits = length.bit_length() * 3 // 10  # a lower estimate, then corrected by exact comparison
        while 10**digits <= length:
            digits += 1
        with pytest.raises(ValueError, match=f"needs a length of {digits} digits$"):
            fib_word(n, seeds)
    with pytest.raises(ValueError, match=f"needs {fib(100)}$"):
        fib_word(100)


def test_fib_word_admits_a_word_of_exactly_the_guard(monkeypatch):
    # |w_20| = F_20 under the default seeds and |w_19| = F_20 under the reference seeds
    _, unit, cost = GUARDS["generation"]
    monkeypatch.setitem(GUARDS, "generation", (fib(20), unit, cost))
    assert fib_word(20) == infinite_prefix(fib(20))
    assert len(fib_word(19, REFERENCE_SEEDS)) == fib(20)
    monkeypatch.setitem(GUARDS, "generation", (fib(20) - 1, unit, cost))  # one symbol short of w_20
    for n, seeds, need in ((20, fibonacci.DEFAULT_SEEDS, fib(20)), (19, REFERENCE_SEEDS, fib(20)),
                           (21, fibonacci.DEFAULT_SEEDS, fib(21))):
        with pytest.raises(ValueError) as refused:
            fib_word(n, seeds)
        assert str(refused.value) == (
            f"generation is limited to {fib(20) - 1} symbols ({cost} at the limit); this input needs {need}")


def test_fib_word_reference_seeds():
    w = fib_word(22, REFERENCE_SEEDS)
    assert len(w) == 28657
    assert w.text.count("1") == 17711
    assert w.text.count("0") == 10946


def test_fib_seeds_validation():
    with pytest.raises(ValueError):
        FibSeeds(Word(BINARY, ""), Word(BINARY, "0"))
    with pytest.raises(ValueError):
        FibSeeds(Word(BINARY, "0"), Word(AB, "a"))


def test_infinite_prefix_values():
    assert infinite_prefix(0).text == ""
    assert infinite_prefix(10).text == "0100101001"
    with pytest.raises(ValueError):
        infinite_prefix(-1)
    with pytest.raises(ValueError, match=f"generation is limited to {SIZE} symbols"):
        infinite_prefix(SIZE + 1)


def test_infinite_prefix_equals_recurrence_word():
    for n in range(3, 26):
        assert infinite_prefix(fib(n)) == fib_word(n)


def test_infinite_prefix_is_monotone():
    long = infinite_prefix(4000).text
    for m in (0, 1, 2, 3, 5, 144, 1000, 3999):
        assert infinite_prefix(m).text == long[:m]


def _recurrence_text(length: int) -> str:
    # s_0 = 0, s_1 = 01, s_k = s_(k-1) s_(k-2): each s_k is a prefix of the next
    older, s = "0", "01"
    while len(s) < length:
        older, s = s, s + older
    return s[:length]


def _empty_cache(monkeypatch) -> None:
    monkeypatch.setattr(fibonacci, "_kept", words._unchecked_word(BINARY, ""))


def test_infinite_prefix_around_the_cache_cap_matches_the_recurrence(monkeypatch):
    _empty_cache(monkeypatch)
    cap = PREFIX_CACHE_SYMBOLS
    assert cap == 2**20
    reference = _recurrence_text(cap + 1)
    lengths, kept = [0, 1, cap - 1, cap, cap + 1], 0
    for length in lengths + lengths[::-1]:  # growing, then shrinking
        w = infinite_prefix(length)
        assert w.text == reference[:length] and w.alphabet == BINARY
        # a slice carries its masks; a prefix past the cap parses them when counted
        ones = int(w.text[::-1] or "0", 2)
        assert w._masks == ({"1": ones, "0": ((1 << length) - 1) ^ ones} if length <= cap else None)
        kept = max(kept, length) if length <= cap else kept  # only grows, never past the cap
        assert len(fibonacci._kept) == kept
    assert fibonacci._kept.text == reference[:cap]
    assert infinite_prefix(cap) is not infinite_prefix(cap)  # every call returns its own Word


def _outcome(length):
    try:
        return infinite_prefix(length).text
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def test_infinite_prefix_refusals_and_odd_lengths_leave_a_warm_cache_alone(monkeypatch):
    odd = (-1, SIZE + 1, 2.5, True)
    _empty_cache(monkeypatch)
    cold = [_outcome(length) for length in odd]  # only True, the last, keeps a prefix
    assert cold[0] == (ValueError, "prefix length must be nonnegative")
    assert cold[1][0] is ValueError and cold[1][1].startswith(f"generation is limited to {SIZE} symbols")
    assert cold[2][0] is TypeError and cold[3] == "0"
    _empty_cache(monkeypatch)
    infinite_prefix(1000)
    kept = fibonacci._kept
    assert [_outcome(length) for length in odd] == cold
    for length in (PREFIX_CACHE_SYMBOLS + 1, 999, 5, 0):
        assert infinite_prefix(length).text == _recurrence_text(length)
    assert fibonacci._kept is kept  # neither a prefix past the cap nor a shorter one replaced it
    assert kept.text == _recurrence_text(1000)


def test_infinite_prefix_avoids_11_and_000():
    text = infinite_prefix(10**6).text
    assert "11" not in text
    assert "000" not in text


def test_infinite_prefix_is_fixed_point():
    for m in (1, 2, 10, 377, 1000):
        w = infinite_prefix(m)
        image = FIBONACCI_MORPHISM.apply(w)
        assert image.text[:m] == w.text


def test_nth_symbol_first_values():
    assert nth_symbol(0) == "0"
    assert nth_symbol(1) == "1"
    with pytest.raises(ValueError):
        nth_symbol(-1)


def test_nth_symbol_agrees_with_prefix():
    text = infinite_prefix(10**5).text
    for i in range(10**5):
        assert nth_symbol(i) == text[i]
