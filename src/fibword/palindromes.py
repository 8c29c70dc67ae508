"""Palindromic factors and scattered palindromic subsequences.

P(w) counts distinct nonempty palindromic factors (contiguous), SP(w)
counts distinct nonempty palindromic subsequences.  For every nonempty w,
P(w) <= |w| <= SP(w).  Factor sets are read off a palindromic tree
(eertree), which is built in time linear in |w| on every word.  SP is summed
with exact big integers over the intervals reachable from the whole word.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, product, repeat
from operator import add, sub

from .density import DensitySample, count_occurrences
from .fibonacci import infinite_prefix
from .words import BINARY, GUARDS, Word, _admit, _Record, _unchecked_word

_BITS = bytes.maketrans(b"01", b"\0\1")  # a binary string's digits as bytes 0 and 1, for compress


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


class PalindromeReport(_Record):
    """Distinct palindromic factors of a word, plus the subsequence count
    when it has been computed."""

    word: Word
    pal_factors: tuple[Word, ...]
    p_count: int
    sp_count: int | None = None


def _pal_factor_strings(text: str) -> list[str]:
    """The distinct nonempty palindromic factors of text, off its eertree.

    Node 0 is the imaginary root (length -1) and node 1 the empty root; each
    other node is one palindrome, kept as its length, suffix link and start
    in three flat lists.  Each edge v -> c.v.c is one entry of a dict keyed
    by v << 21 | ord(c).
    """
    lens, links, starts = [-1, 0], [0, 0], [0, 0]
    edges: dict[int, int] = {}
    last, total, limit = 1, 0, GUARDS["pal_factors"][0]  # the longest palindromic suffix read; lengths' sum
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
            if total > limit:  # every factor is built as a string: stop before any is
                _admit("pal_factors", total, pos + 1)
    return [text[s : s + n] for s, n in zip(starts[2:], lens[2:])]


def pal_factors(w: Word) -> PalindromeReport:
    """Report with the set of distinct nonempty palindromic factors of w
    (lexicographic under the alphabet order) and its cardinality."""
    ordered = w.alphabet.sort_texts(_pal_factor_strings(w.text))
    factors = tuple(_unchecked_word(w.alphabet, t) for t in ordered)
    return PalindromeReport(word=w, pal_factors=factors, p_count=len(factors))


def sp_count(w: Word) -> int:
    """Number of distinct nonempty palindromic subsequences of w, with exact big integers,
    summed over the intervals s[i:j] reachable from the whole of s = w.text.

    A nonempty palindrome in s[i:j] is c, cc or c.p.c, c its first letter, so
    SP(i, j) sums, over the letters c of s[i:j], 1 + [f < l](1 + SP(f+1, l)),
    f the first c at or after i and l the last c before j.  Discovery walks left
    ends up, keeping each one's right ends j as bits n - j of an int, so the step
    from j to l is one carry.  Evaluation walks down, keeping per letter only the
    values of left end f+1, which no left end at or before the previous c reads.
    """
    s = w.text
    n = len(s)
    _admit("sp_count", n)  # the cost is the reachable intervals times the letters looked up in each
    nxt, head = [n] * (n + 1), {}  # nxt[p]: the next occurrence of s[p]; head[c]: the first c
    for p in range(n - 1, -1, -1):
        nxt[p], head[s[p]] = head.get(s[p], n), p
    last, at = {}, {}  # last[c][j]: the last c before j; at[c]: bit n - p per c at p
    for c, f in head.items():
        cs = [f]
        while cs[-1] < n:
            cs.append(nxt[cs[-1]])
        if len(cs) > 2:  # only a letter that occurs twice is ever looked up
            digits = bytearray(b"0" * (n + 1))
            for p in cs[:-1]:
                digits[p] = 49  # "1"
            at[c] = int(digits, 2)
            last[c] = list(chain(repeat(-1, f + 1), *map(repeat, cs, map(sub, cs[1:], cs))))
    full, ends = (2 << n) - 1, {0: 1}  # ends: left end i -> its right ends j, bit n - j each
    for i in range(n):  # head[c]: the first c at or after i, n past the last c
        if mask := ends.get(i):
            top = n + 1 - (mask & -mask).bit_length()  # the largest right end
            for c, f in head.items():
                if (g := nxt[f]) < top:  # c occurs twice in s[i:top]
                    x = (mask & (1 << n - g) - 1) << 1  # right ends past g, at bit n - j + 1
                    gap = full ^ at[c]  # a carry from x's lowest bit in a gap lands on the c above
                    ends[f + 1] = ends.get(f + 1, 0) | (gap + (x & gap) | x) & at[c]
        head[s[i]] = nxt[i]
    positions, kids, row, vals = list(range(n + 1)), {}, {n - 1: 1}, [2]
    for i in range(n - 1, -1, -1):  # kids[c]: f, the first c at or after i, and left end f+1's values
        kids[s[i]], row = (i, row), {i - 1: 1}  # this frees the values the next s[i] gave
        if mask := ends.pop(i, 0):  # row: j -> 2 + SP(i, j), and 1 at l = f: the letter alone
            bits = format(mask, "b")
            js = list(compress(positions[n + 1 - len(bits) :], bits.encode().translate(_BITS)))
            vals, once, top = [2] * len(js), [], js[-1]
            for c, (f, kid) in kids.items():
                if nxt[f] < top:  # c occurs twice in s[i:top]: 2 + SP(f+1, l) past its second
                    vals = list(map(add, vals, map(kid.get, map(last[c].__getitem__, js), repeat(0))))
                elif f < top:  # c occurs once in s[i:top]: it adds 1 past f
                    once.append(f)
            if once:
                vals = list(map(add, vals, map(bisect_left, repeat(sorted(once)), js)))
            row.update(zip(js, vals))
    return vals[-1] - 2


def sp_delta(w: Word, symbol: str) -> int:
    """How many new scattered palindromic subsequences appending `symbol`
    to w creates: SP(w·a) - SP(w)."""
    return sp_count(w + Word(w.alphabet, symbol)) - sp_count(w)


def palindrome_report(w: Word) -> PalindromeReport:
    """Full report: palindromic factors, P(w) and SP(w)."""
    sp = sp_count(w)  # first, so a word past the SP guard builds no factor string
    r = pal_factors(w)
    return PalindromeReport(r.word, r.pal_factors, r.p_count, sp)


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
