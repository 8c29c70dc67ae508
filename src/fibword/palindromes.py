"""Palindromic factors and scattered palindromic subsequences.

P(w) counts distinct nonempty palindromic factors (contiguous), SP(w)
counts distinct nonempty palindromic subsequences.  For every nonempty w,
P(w) <= |w| <= SP(w).  Factor sets are read off a palindromic tree
(eertree), which is built in time linear in |w| on every word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Optional

from .density import DensitySample, count_occurrences
from .fibonacci import infinite_prefix
from .words import BINARY, Word

#: sp_count is quadratic in |w| (time and memory), so very long inputs are
#: refused.
SP_COUNT_GUARD = 10**4


def is_palindrome(w: Word) -> bool:
    """True iff w reads the same both ways; the empty word qualifies."""
    t = w.text
    return t == t[::-1]


def is_numeric_palindrome(n: int) -> bool:
    """True iff the decimal digit string of n is a palindrome."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = str(n)
    return s == s[::-1]


@dataclass(frozen=True)
class PalindromeReport:
    """Distinct palindromic factors of a word, plus the subsequence count
    when it has been computed."""

    word: Word
    pal_factors: tuple[Word, ...]
    p_count: int
    sp_count: Optional[int] = None


class _Eertree:
    """Palindromic tree: one node per distinct palindromic factor."""

    __slots__ = ("text", "lens", "links", "trans", "ends", "last")

    def __init__(self, text: str):
        self.text = text
        self.lens = [-1, 0]  # node 0: imaginary root, node 1: empty root
        self.links = [0, 0]
        self.trans: list[dict[str, int]] = [{}, {}]
        self.ends = [-1, -1]  # sample end position of each palindrome
        self.last = 1
        for pos in range(len(text)):
            self._add(pos)

    def _suffix_pal(self, v: int, pos: int) -> int:
        # Longest palindromic suffix node v' of text[:pos] such that
        # text[pos - len(v') - 1] == text[pos].
        text = self.text
        while True:
            l = self.lens[v]
            if pos - l - 1 >= 0 and text[pos - l - 1] == text[pos]:
                return v
            v = self.links[v]

    def _add(self, pos: int) -> None:
        ch = self.text[pos]
        cur = self._suffix_pal(self.last, pos)
        nxt = self.trans[cur].get(ch)
        if nxt is not None:
            self.last = nxt
            return
        idx = len(self.lens)
        self.lens.append(self.lens[cur] + 2)
        self.ends.append(pos)
        if self.lens[idx] == 1:
            link = 1
        else:
            link = self.trans[self._suffix_pal(self.links[cur], pos)][ch]
        self.links.append(link)
        self.trans.append({})
        self.trans[cur][ch] = idx
        self.last = idx

    def factor_strings(self) -> set[str]:
        text = self.text
        return {
            text[self.ends[i] - self.lens[i] + 1 : self.ends[i] + 1]
            for i in range(2, len(self.lens))
        }


def pal_factors(w: Word) -> PalindromeReport:
    """Report with the set of distinct nonempty palindromic factors of w
    (lexicographic under the alphabet order) and its cardinality."""
    strings = _Eertree(w.text).factor_strings()
    ordered = sorted(strings, key=w.alphabet.sort_key)
    factors = tuple(Word(w.alphabet, t) for t in ordered)
    return PalindromeReport(word=w, pal_factors=factors, p_count=len(factors))


def _sp_count_text(s: str) -> int:
    n = len(s)
    if n == 0:
        return 0
    # dp[i][j] = distinct nonempty palindromic subsequences of s[i..j].
    dp = [[0] * n for _ in range(n)]
    for i in range(n):
        dp[i][i] = 1
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span - 1
            if s[i] != s[j]:
                inner = dp[i + 1][j - 1] if span > 2 else 0
                dp[i][j] = dp[i + 1][j] + dp[i][j - 1] - inner
            else:
                inner = dp[i + 1][j - 1] if span > 2 else 0
                lo = s.find(s[i], i + 1, j)
                if lo == -1:
                    # no inner occurrence: the doubles plus the single are new
                    dp[i][j] = 2 * inner + 2
                else:
                    hi = s.rfind(s[i], i + 1, j)
                    if lo == hi:
                        dp[i][j] = 2 * inner + 1
                    else:
                        shared = dp[lo + 1][hi - 1] if lo + 1 <= hi - 1 else 0
                        dp[i][j] = 2 * inner - shared
    return dp[0][n - 1]


def sp_count(w: Word) -> int:
    """Number of distinct nonempty palindromic subsequences of w, by
    interval dynamic programming with exact big integers."""
    if len(w) > SP_COUNT_GUARD:
        raise ValueError(f"sp_count is limited to |w| <= {SP_COUNT_GUARD}")
    return _sp_count_text(w.text)


def sp_delta(w: Word, symbol: str) -> int:
    """How many new scattered palindromic subsequences appending `symbol`
    to w creates: SP(w·a) - SP(w)."""
    extended = w + Word(w.alphabet, symbol)
    return sp_count(extended) - sp_count(w)


def palindrome_report(w: Word) -> PalindromeReport:
    """Full report: palindromic factors, P(w) and SP(w)."""
    return replace(pal_factors(w), sp_count=sp_count(w))


def pal_density_table(prefix_len: int, length: int) -> dict[Word, DensitySample]:
    """Occurrence density in the length-prefix_len prefix of the infinite
    word, for every binary palindrome of the given length.

    Palindromes that never occur report density 0.  Note that the factors
    11 and 000 never occur in this word, so e.g. at length 2 only 00 can
    have positive density.
    """
    if not 1 <= length <= 8:
        raise ValueError("palindrome length must be between 1 and 8")
    if prefix_len < length:
        raise ValueError("prefix must be at least as long as the palindromes")
    prefix = infinite_prefix(prefix_len)
    table: dict[Word, DensitySample] = {}
    for bits in product("01", repeat=length):
        text = "".join(bits)
        if text != text[::-1]:
            continue
        pattern = Word(BINARY, text)
        count = count_occurrences(pattern, prefix)
        table[pattern] = DensitySample(prefix_len, Fraction(count, prefix_len))
    return table
