"""Fibonacci numbers and Fibonacci words.

Exact integers come from the recurrence (evaluated by fast doubling), the
floating Binet form is kept separate so the two routes can be checked
against each other.  Words from any seed pair and prefixes of the fixed
point all come from one per-letter image step of the substitution
0 -> 01, 1 -> 0, and single symbols of the infinite word can be read off
directly with exact integer arithmetic.
"""

from __future__ import annotations

import math

from .words import BINARY, Morphism, Word, _admit, _letter_masks, _Record, _unchecked_word

#: Largest index where the double-precision Binet form still identifies
#: the exact integer.
BINET_MAX_N = 70

#: The substitution whose fixed point (from seed 0) is the standard
#: infinite word.
FIBONACCI_MORPHISM = Morphism(BINARY, BINARY, {"0": "01", "1": "0"})

#: infinite_prefix keeps its longest prefix up to this length with its letter masks: 1 MB and 256 KB.
PREFIX_CACHE_SYMBOLS = 2**20


#: The golden ratio at double precision; _PSI is its conjugate 1 - phi.
PHI = (1.0 + math.sqrt(5.0)) / 2.0
_PSI = 1.0 - (1.0 + math.sqrt(5.0)) / 2.0
_SQRT5 = math.sqrt(5.0)


def golden_ratio_bounds(digits: int = 40) -> tuple[Fraction, Fraction]:
    """Exact rational bracket lo < phi < hi, tight to 10**-digits.

    Useful for tolerance-free comparisons of exact rationals against the
    golden ratio (or against phi - 1, by shifting).
    """
    from fractions import Fraction  # the only Fraction here: generating a word needs none
    scale = 10**digits
    r = math.isqrt(5 * scale * scale)  # r <= sqrt(5)*scale < r + 1
    return Fraction(r + scale, 2 * scale), Fraction(r + 1 + scale, 2 * scale)


def _fib_pair(n: int, k: int = 1) -> tuple[int, int]:
    # (F_n, F_{n+1}) of F_{m+1} = k*F_m + F_{m-1}, F_0 = 0, F_1 = 1, by fast doubling:
    # F_{2m} = F_m (2 F_{m+1} - k F_m), F_{2m+1} = F_m^2 + F_{m+1}^2.
    if n == 0:
        return (0, 1)
    a, b = _fib_pair(n >> 1, k)
    c = a * ((b << 1) - k * a)
    d = a * a + b * b
    return (d, k * d + c) if n & 1 else (c, d)


def fib(n: int) -> int:
    """Exact Fibonacci number, indexed F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("Fibonacci indexing starts at 1 (F_1 = F_2 = 1)")
    return _fib_pair(n)[0]


def fib_binet(n: int) -> float:
    """Binet's closed form (phi**n - psi**n) / sqrt(5) in doubles.

    Refused beyond n = 70, where double precision can no longer separate
    consecutive exact values.
    """
    if n < 1:
        raise ValueError("Fibonacci indexing starts at 1")
    if n > BINET_MAX_N:
        raise ValueError(f"n = {n} exceeds the double-precision range (n <= {BINET_MAX_N})")
    return (PHI**n - _PSI**n) / _SQRT5


def k_fib(k: int, n: int) -> int:
    """k-Fibonacci number: F_{k,0} = 0, F_{k,1} = 1,
    F_{k,n+1} = k*F_{k,n} + F_{k,n-1}.  k = 1 is the ordinary sequence."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _fib_pair(n, k)[0]


def k_fib_ratio(k: int, n: int) -> float:
    """Consecutive-term ratio F_{k,n} / F_{k,n-1}.

    Converges to the positive root of a**2 - k*a - 1 = 0.
    """
    if n < 2:
        raise ValueError("ratio needs n >= 2 (F_{k,1}/F_{k,0} divides by zero)")
    return k_fib(k, n) / k_fib(k, n - 1)


class FibSeeds(_Record):
    """Seed pair for the word recurrence w_n = w_{n-1} w_{n-2}."""

    first: Word
    second: Word

    def __post_init__(self) -> None:
        if len(self.first) == 0 or len(self.second) == 0:
            raise ValueError("seed words must be nonempty")
        if self.first.alphabet != self.second.alphabet:
            raise ValueError("seed words must share an alphabet")


#: w_1 = "1", w_2 = "0": the convention under which w_n is a prefix of the
#: infinite word and |w_n| = F_n.
DEFAULT_SEEDS = FibSeeds(Word(BINARY, "1"), Word(BINARY, "0"))

#: w_1 = "1", w_2 = "10": the seed pair of the published reference run
#: (see the CLI command reproduce-3-2).
REFERENCE_SEEDS = FibSeeds(Word(BINARY, "1"), Word(BINARY, "10"))


def fib_word(n: int, seeds: FibSeeds = DEFAULT_SEEDS) -> Word:
    """n-th word of the recurrence w_n = w_{n-1} w_{n-2} from the seeds.

    Under the default seeds |w_n| = F_n.  A length past the "generation" guard is refused
    before any allocation happens (by its digit count past w_100).  w_n = h(phi^(n-2)(0)) for n >= 2,
    where phi = FIBONACCI_MORPHISM and h maps 1, 0 to the first, second seed.
    """
    if n < 1:
        raise ValueError("word index starts at 1")
    size, after = len(seeds.first), len(seeds.second)  # |w_1|, |w_2|
    for _ in range(min(n, 100) - 1):  # exact to |w_100|, past every guard; then |w_100| phi**(n - 100) to 40 digits
        size, after = after, size + after
    digits = int(math.log10(size) + (n - 100) * math.log10(PHI)) + 1  # past w_100; the float is off by ~n * 1e-16
    _admit("generation", size, shown=f"a length of {digits} digits" if n > 100 else None)
    if n == 1:
        return seeds.first
    images = {"0": seeds.second.text, "1": seeds.first.text}
    for _ in range(n - 2):
        images = FIBONACCI_MORPHISM._step(images)
    return _unchecked_word(seeds.first.alphabet, images["0"])


_kept = _unchecked_word(BINARY, "")  # the longest prefix infinite_prefix has kept; its masks are whole


def infinite_prefix(length: int) -> Word:
    """First `length` symbols of the fixed point of 0 -> 01, 1 -> 0 starting from 0, sliced with
    its letter masks from the longest prefix built so far of at most PREFIX_CACHE_SYMBOLS symbols."""
    global _kept
    if not 0 <= length <= len(kept := _kept):
        built = _unchecked_word(BINARY, FIBONACCI_MORPHISM.fixed_point_prefix("0", length))
        if length > PREFIX_CACHE_SYMBOLS:
            return built  # not kept; its masks are parsed on its first count
        new = _letter_masks(built[len(kept) :])  # only the symbols past kept are parsed
        built._masks = {c: m | new[c] << len(kept) for c, m in _letter_masks(kept).items()}
        _kept = kept = built  # replaced only by a longer one; racing threads may keep either
    w, whole = _unchecked_word(BINARY, kept.text[:length]), (1 << length) - 1
    w._masks = {c: m & whole for c, m in _letter_masks(kept).items()}
    return w


def _floor_mult_phi(n: int) -> int:
    # floor(n * phi) exactly: n*phi = (n + n*sqrt(5)) / 2 and
    # floor(n*sqrt(5)) = isqrt(5*n*n).
    return (n + math.isqrt(5 * n * n)) // 2


def nth_symbol(i: int) -> str:
    """Symbol i (0-indexed) of the infinite word, in constant space.

    Evaluates the floor-function characteristic form with exact integer
    arithmetic; agrees with infinite_prefix at every index.
    """
    if i < 0:
        raise ValueError("index must be nonnegative")
    n = i + 1
    bit = 2 + _floor_mult_phi(n) - _floor_mult_phi(n + 1)
    return "0" if bit == 0 else "1"
