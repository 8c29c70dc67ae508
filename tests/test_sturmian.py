"""Theorems on Sturmian words, checked where the brute-force oracles do not reach.

The oracle tests stop at a few hundred symbols for factor sets and at 10^4-10^5 for counts and
symbol access.  The Fibonacci word is Sturmian, so its structure gives exact checks at larger sizes
that share no code with the routines under test.  These checks add reach, not kill power: the
drawn oracle tests stay, and each test below names the sizes it covers past them.
"""

from collections import Counter
from math import isqrt

from fibword.density import letter_density_curve
from fibword.fibonacci import infinite_prefix, nth_symbol
from fibword.palindromes import pal_factors
from fibword.words import distinct_factors

N = 10**5


def _floor_phi_times(m: int) -> int:
    # floor(m * phi) = floor((m + m * sqrt(5)) / 2), and floor(m * sqrt(5)) = isqrt(5 * m * m)
    return (m + isqrt(5 * m * m)) // 2


def test_factor_complexity_is_k_plus_one_and_the_factors_are_balanced():
    # Morse-Hedlund: a Sturmian word has exactly k + 1 factors of each length k.  Coven-Hedlund:
    # their counts of 1 differ by at most one.  The oracle's factor sets reach 610 symbols
    # (tests/test_words.py); this covers a 10^5-symbol prefix at every k <= 64, the block width.
    prefix = infinite_prefix(N)
    for k in range(1, 65):
        factors = distinct_factors(prefix, k)
        assert len(factors) == k + 1, k
        ones = {f.text.count("1") for f in factors}
        assert max(ones) - min(ones) <= 1, k


def test_letter_counts_follow_the_golden_ratio_exactly():
    # The prefix of length n holds 2n + 1 - floor((n + 1) * phi) ones.  Counts are checked against
    # the prefix's own text to n = 10^4 (tests/test_density.py); this covers every n to 10^5.
    for n, sample in enumerate(letter_density_curve("1", N), start=1):
        assert sample.count == 2 * n + 1 - _floor_phi_times(n + 1), n


def test_symbol_access_agrees_with_the_fixed_point_past_the_checked_prefix():
    # nth_symbol reads the floor form, infinite_prefix iterates the morphism 0 -> 01, 1 -> 0: the
    # two agree because the fixed point is a mechanical word.  Every index to 10^5 is checked in
    # tests/test_fibonacci.py; this covers every 101st index to 10^6.
    text = infinite_prefix(10 * N).text
    for i in range(0, len(text), 101):
        assert nth_symbol(i) == text[i], i


def test_palindromic_factors_are_rich_with_one_or_two_of_each_length():
    # Droubay-Justin-Pirillo: a Sturmian word is rich, so its prefix of length n has exactly n
    # distinct nonempty palindromic factors.  Droubay-Pirillo: it has one palindromic factor of each
    # even length and two of each odd length; a prefix of 10^4 symbols holds them all for every
    # length below 4,181 (F_19), and at 4,181 the count first falls short.  The oracle's centre scan
    # reaches words of 300 symbols (tests/test_palindromes.py); this covers a 10^4-symbol prefix.
    report = pal_factors(infinite_prefix(10**4))
    assert report.p_count == 10**4
    lengths = Counter(len(f) for f in report.pal_factors)
    assert all(lengths[length] == 1 + length % 2 for length in range(1, 4181))
