"""Palindromic factors and scattered palindromic subsequences.

P(w) counts distinct nonempty palindromic factors (contiguous), SP(w)
counts distinct nonempty palindromic subsequences.  For every nonempty w,
P(w) <= |w| <= SP(w).  Factor sets are read off a palindromic tree
(eertree), which is built in time linear in |w| on every word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

from .density import DensitySample, count_occurrences
from .fibonacci import infinite_prefix
from .words import BINARY, Word, _unchecked_word

#: sp_count takes time quadratic in |w| and keeps (letters + 2) rows of |w|
#: big integers; at the guard, a random binary word takes ~20 s and ~24 MB
#: peak RSS (2-CPU VM, Python 3.11).  Longer inputs are refused.
SP_COUNT_GUARD = 10**4

#: pal_factors builds every factor as a string, so it refuses words whose factors
#: total more characters: Fibonacci prefixes past 16,509 symbols, or a^n past 14,141.
#: The tree stops at the first symbol that takes the running total past it.
PAL_FACTORS_GUARD = 10**8


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


def _pal_factor_strings(text: str) -> list[str]:
    """The distinct nonempty palindromic factors of text, off its eertree.

    Node 0 is the imaginary root (length -1) and node 1 the empty root; each
    other node is one palindrome, kept as its length, suffix link and start
    in three flat lists.  Each edge v -> c.v.c is one entry of a dict keyed
    by v << 21 | ord(c).
    """
    lens, links, starts = [-1, 0], [0, 0], [0, 0]
    edges: dict[int, int] = {}
    last, total = 1, 0  # the longest palindromic suffix read so far; the node lengths' sum
    for pos, ch in enumerate(text):
        v = last
        while (i := pos - lens[v] - 1) < 0 or text[i] != ch:
            v = links[v]
        last = edges.get(key := v << 21 | ord(ch))
        if last is None:
            u = links[v]  # shorter than v, so its index below never drops under 0
            while text[pos - lens[u] - 1] != ch:
                u = links[u]
            links.append(edges[u << 21 | ord(ch)] if v else 1)  # a letter links to the empty root
            last = edges[key] = len(lens)
            lens.append(lens[v] + 2)
            starts.append(i)
            total += lens[-1]
            if total > PAL_FACTORS_GUARD:
                raise ValueError(
                    f"pal_factors is limited to {PAL_FACTORS_GUARD} characters of factors in all; "
                    f"the palindromic factors of this word's first {pos + 1} symbols total {total}"
                )
    return [text[s : s + n] for s, n in zip(starts[2:], lens[2:])]


def pal_factors(w: Word) -> PalindromeReport:
    """Report with the set of distinct nonempty palindromic factors of w
    (lexicographic under the alphabet order) and its cardinality."""
    ordered = sorted(_pal_factor_strings(w.text), key=w.alphabet.sort_key)
    factors = tuple(_unchecked_word(w.alphabet, t) for t in ordered)
    return PalindromeReport(word=w, pal_factors=factors, p_count=len(factors))


def _sp_prefix_counts(s: str) -> list[int]:
    """SP of every prefix of s, the empty prefix first.

    Row i of the interval DP holds dp[i][j] = SP(s[i..j]) for every j (0 for
    j < i).  Rows are built from i = n-1 down to 0, and row i reads only row
    i+1, itself to its left and row lo+1, where lo is the next occurrence of
    s[i].  So one saved row per letter plus the row below is kept alive, and
    row 0 is SP of every nonempty prefix.
    """
    n = len(s)
    if n > SP_COUNT_GUARD:
        raise ValueError(f"sp_count is limited to |w| <= {SP_COUNT_GUARD}")
    prev_same = []  # prev_same[j]: the previous occurrence of s[j], or -1
    last: dict[str, int] = {}
    for j, c in enumerate(s):
        prev_same.append(last.get(c, -1))
        last[c] = j
    below = [0] * n  # row n: every interval is empty
    later: dict[str, tuple[int, list[int]]] = {}  # c -> (next occurrence lo, row lo+1)
    for i in range(n - 1, -1, -1):
        c = s[i]
        lo, shared = later.get(c, (n, below))  # no later c: shared is never read
        row = [0] * i
        row.append(1)
        append = row.append
        left = 1
        # down = dp[i+1][j], diag = dp[i+1][j-1], left = dp[i][j-1]
        for d, down, diag, hi in zip(s[i + 1 :], below[i + 1 :], below[i:], prev_same[i + 1 :]):
            if d != c:
                left = down + left - diag
            elif hi == i:  # no c strictly inside: c, cc and every c.p.c are new
                left = 2 * diag + 2
            elif hi == lo:  # one c inside: only cc is new besides c.p.c
                left = 2 * diag + 1
            else:  # c.p.c with p inside the inner c..c were counted already
                left = 2 * diag - shared[hi - 1]
            append(left)
        later[c] = (i, below)
        below = row
    return [0, *below]


def sp_count(w: Word) -> int:
    """Number of distinct nonempty palindromic subsequences of w, by
    interval dynamic programming with exact big integers."""
    return _sp_prefix_counts(w.text)[-1]


def sp_delta(w: Word, symbol: str) -> int:
    """How many new scattered palindromic subsequences appending `symbol`
    to w creates: SP(w·a) - SP(w), read off one pass over w·a."""
    extended = w + Word(w.alphabet, symbol)
    counts = _sp_prefix_counts(extended.text)
    return counts[-1] - counts[len(w)]


def palindrome_report(w: Word) -> PalindromeReport:
    """Full report: palindromic factors, P(w) and SP(w)."""
    sp = sp_count(w)  # first, so a word past the SP guard builds no factor string
    return replace(pal_factors(w), sp_count=sp)


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
    texts = ("".join(bits) for bits in product("01", repeat=length))
    pals = [Word(BINARY, t) for t in texts if t == t[::-1]]
    return {w: DensitySample(prefix_len, count=count_occurrences(w, prefix)) for w in pals}
