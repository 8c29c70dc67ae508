"""Fibonacci numbers and Fibonacci words.

Exact integers come from the recurrence (evaluated by fast doubling), the
floating Binet form is kept separate so the two routes can be checked
against each other.  Words are built either by the concatenation
recurrence from a seed pair or as prefixes of the fixed point of the
substitution 0 -> 01, 1 -> 0, and single symbols of the infinite word can
be read off directly with exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .words import BINARY, Morphism, Word

#: Generating words longer than this is refused up front.
SIZE_GUARD = 2**31

#: Largest index where the double-precision Binet form still identifies
#: the exact integer.
BINET_MAX_N = 70

#: The substitution whose fixed point (from seed 0) is the standard
#: infinite word.
FIBONACCI_MORPHISM = Morphism(BINARY, BINARY, {"0": "01", "1": "0"})


@dataclass(frozen=True)
class GoldenConstants:
    """The golden ratio and its companions at double precision."""

    sqrt5: float = math.sqrt(5.0)
    phi: float = (1.0 + math.sqrt(5.0)) / 2.0
    psi: float = 1.0 - (1.0 + math.sqrt(5.0)) / 2.0


GOLDEN = GoldenConstants()
PHI = GOLDEN.phi


def golden_ratio_bounds(digits: int = 40) -> tuple[Fraction, Fraction]:
    """Exact rational bracket lo < phi < hi, tight to 10**-digits.

    Useful for tolerance-free comparisons of exact rationals against the
    golden ratio (or against phi - 1, by shifting).
    """
    scale = 10**digits
    r = math.isqrt(5 * scale * scale)  # r <= sqrt(5)*scale < r + 1
    return Fraction(r + scale, 2 * scale), Fraction(r + 1 + scale, 2 * scale)


def _fib_pair(n: int) -> tuple[int, int]:
    # (F_n, F_{n+1}) with F_0 = 0, by fast doubling.
    if n == 0:
        return (0, 1)
    a, b = _fib_pair(n >> 1)
    c = a * ((b << 1) - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


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
    g = GOLDEN
    return (g.phi**n - g.psi**n) / g.sqrt5


def k_fib(k: int, n: int) -> int:
    """k-Fibonacci number: F_{k,0} = 0, F_{k,1} = 1,
    F_{k,n+1} = k*F_{k,n} + F_{k,n-1}.  k = 1 is the ordinary sequence."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if n < 0:
        raise ValueError("index must be nonnegative")
    a, b = 0, 1  # F_{k,0}, F_{k,1}
    for _ in range(n):
        a, b = b, k * b + a
    return a


def k_fib_ratio(k: int, n: int) -> float:
    """Consecutive-term ratio F_{k,n} / F_{k,n-1}.

    Converges to the positive root of a**2 - k*a - 1 = 0.
    """
    if n < 2:
        raise ValueError("ratio needs n >= 2 (F_{k,1}/F_{k,0} divides by zero)")
    return k_fib(k, n) / k_fib(k, n - 1)


@dataclass(frozen=True)
class FibSeeds:
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

    Under the default seeds |w_n| = F_n.  Growth past 2**31 symbols is
    refused before any allocation happens.
    """
    if n < 1:
        raise ValueError("word index starts at 1")
    la, lb = len(seeds.first), len(seeds.second)
    length = (la, lb)[n - 1] if n <= 2 else 0
    if n > 2:
        a, b = la, lb
        for _ in range(n - 2):
            a, b = b, a + b
            if b > SIZE_GUARD:
                raise ValueError(f"word would exceed the {SIZE_GUARD}-symbol guard")
        length = b
    if length > SIZE_GUARD:
        raise ValueError(f"word would exceed the {SIZE_GUARD}-symbol guard")
    if n == 1:
        return seeds.first
    if n == 2:
        return seeds.second
    prev, cur = seeds.first.text, seeds.second.text
    for _ in range(n - 2):
        prev, cur = cur, cur + prev
    return Word(seeds.first.alphabet, cur)


def infinite_prefix(length: int) -> Word:
    """First `length` symbols of the fixed point of 0 -> 01, 1 -> 0
    starting from 0."""
    if length < 0:
        raise ValueError("prefix length must be nonnegative")
    if length > SIZE_GUARD:
        raise ValueError(f"prefix would exceed the {SIZE_GUARD}-symbol guard")
    return Word(BINARY, FIBONACCI_MORPHISM.fixed_point_prefix("0", length))


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
