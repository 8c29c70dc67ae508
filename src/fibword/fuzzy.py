"""Fuzzy Fibonacci words: symbols paired with membership degrees.

Degrees attach per letter (a and b each get one grade in [0, 1]) and the
degree of a multi-symbol word is the minimum over its symbols, so
membership distributes over concatenation as a min.  The words are
fibonacci.fib_word over the seeds b, a.
"""

from __future__ import annotations

from .fibonacci import FibSeeds, fib_word
from .words import AB, Word, _admit, _Record


class FuzzyWord(_Record):
    """A word whose symbols carry membership degrees in [0, 1]."""

    word: Word
    memberships: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.memberships) != len(self.word):
            raise ValueError("one membership degree per symbol is required")
        if any(not 0.0 <= m <= 1.0 for m in self.memberships):
            raise ValueError("membership degrees must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.word)


def fuzzy_fib_word(n: int, mu_a: float, mu_b: float) -> FuzzyWord:
    """Fuzzy word of the recursion F(0) = b, F(1) = a,
    F(n) = F(n-1) F(n-2), each symbol carrying its letter's degree."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _admit("fuzzy_fib_word", n)
    if not (0.0 <= mu_a <= 1.0 and 0.0 <= mu_b <= 1.0):
        raise ValueError("membership degrees must lie in [0, 1]")
    word = fib_word(n + 1, FibSeeds(Word(AB, "b"), Word(AB, "a")))
    return FuzzyWord(word, tuple(mu_a if c == "a" else mu_b for c in word.text))


def word_membership(fw: FuzzyWord) -> float:
    """Degree of the whole word: the minimum over its symbols."""
    if len(fw) == 0:
        raise ValueError("the empty fuzzy word has no membership degree")
    return min(fw.memberships)


def fuzzy_concat(u: FuzzyWord, v: FuzzyWord) -> FuzzyWord:
    """Concatenation, keeping each symbol's degree."""
    return FuzzyWord(u.word + v.word, u.memberships + v.memberships)
