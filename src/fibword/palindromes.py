"""Palindromic factors and scattered palindromic subsequences.

P(w) counts distinct nonempty palindromic factors (contiguous), SP(w)
counts distinct nonempty palindromic subsequences.  For every nonempty w,
P(w) <= |w| <= SP(w).  Factor sets are read off a palindromic tree
(eertree), which is built in time linear in |w| on every word.  SP is summed
with exact big integers over the intervals reachable from the whole word.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, product, repeat
from operator import add, itemgetter, sub

from .words import BINARY, GUARDS, Word, _admit, _Record, _unchecked_word


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
    other node is one palindrome, kept as its length plus 2, suffix link and
    end in three flat lists; each letter c has one dict of edges v -> c.v.c.  A
    walk reads the letters from a list ending in None, which a palindrome
    that starts the text meets at -1, so only the imaginary root ends it.
    Below v, the walk for c reads only letters inside v (the one before each
    proper suffix of v), so c's dict of jumps keeps, per v, where it stopped.
    """
    back, links, ends, sym = [1, 2], [0, 0], [0, 0], [*text, None]  # back[v] = |v| + 2
    edges = {c: {} for c in set(text)}
    jumps = {c: {} for c in edges}
    last, total, limit = 1, 0, GUARDS["pal_factors"][0]  # the longest palindromic suffix read; lengths' sum
    for end, ch in enumerate(text, 1):  # a suffix v of text[:end - 1] follows the letter at end - back[v]
        v = last
        if sym[end - back[v]] != ch and (v := (jump := jumps[ch]).get(last)) is None:
            v = links[last]
            while sym[end - back[v]] != ch:
                v = links[v]
            jump[last] = v
        out = edges[ch]
        if (last := out.get(v)) is None:
            u = links[v]  # shorter than v, so its index below never drops under -1
            while sym[end - back[u]] != ch:
                u = links[u]
            links.append(out[u] if v else 1)  # a letter links to the empty root
            last = out[v] = len(back)
            back.append(back[v] + 2)
            ends.append(end)
            total += back[v]  # the new palindrome's length
            if total > limit:  # every factor is built as a string: stop before any is
                _admit("pal_factors", total, end)
    return [text[e + 2 - b : e] for e, b in zip(ends[2:], back[2:])]


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
    f the first c at or after i and l the last c before j.  Row i >= 1's right ends
    are positions of d = s[i-1], kept as the hull of their d-ranks; the walk up
    widens each kid's hull from the prefix counts cnt[c].  The walk down, passing a
    c at f, writes 1 (c alone) and row f+1's values into c's buffer at rank + 1.  A
    row reads d's buffer as a slice and another c's at cnt[c][j], where a slot no c
    in s[i:j] reaches is still 0; letters once in s[i:top] are bisected.
    """
    s = w.text
    n = len(s)
    _admit("sp_count", n)  # the cost is the hull cells times the letters looked up in each
    nxt, head = [n] * (n + 1), {}  # nxt[p]: the next occurrence of s[p]; head[c]: the first c
    for p in range(n - 1, -1, -1):
        nxt[p], head[s[p]] = head.get(s[p], n), p
    _admit("sp_slots", len([f for f in head.values() if nxt[f] < n]) * (n + 1))  # before any count list is built
    pos, cnt, bufs = {}, {}, {}  # per letter that occurs twice: its positions, cnt[c][p] = c's in s[:p]
    lo, hi = [n] * (n + 1), [-1] * (n + 1)  # row i's hull, as ranks of s[i-1]; hi < 0: not reached
    for c, f in head.items():
        cs = [f]
        while (p := nxt[cs[-1]]) < n:
            cs.append(p)
        if len(cs) > 1:
            pos[c], bufs[c] = cs, [0] * (len(cs) + 1)
            lo[f + 1] = hi[f + 1] = len(cs) - 1  # row 0's one right end, n, reads row f+1 at c's last rank
            counts = map(repeat, range(1, len(cs)), map(sub, cs[1:], cs))
            cnt[c] = list(chain(repeat(0, f + 1), *counts, repeat(len(cs), n - cs[-1])))
    for i in range(1, n):  # head[c]: the first c at or after i, n past the last c
        head[s[i - 1]] = nxt[i - 1]
        if (b := hi[i]) >= 0:
            js, a = pos[s[i - 1]], lo[i]
            low, top = js[a], js[b]  # the row's lowest and largest right ends
            for c, f in head.items():
                if (g := nxt[f]) < top:  # c occurs twice in s[i:top]: right ends past g read row f+1
                    counted = cnt[c]
                    if (x := counted[low if low > g else g + 1] - 1) < lo[f + 1]:
                        lo[f + 1] = x
                    if (y := counted[top] - 1) > hi[f + 1]:
                        hi[f + 1] = y
    kids, vals = {}, []  # kids[c]: the first c at or after i; vals: row i+1's values, 2 + SP(i+1, j)
    for i in range(n - 1, -1, -1):
        if (buf := bufs.get(c := s[i])) is not None:  # rows from i down read row i+1, not the next c's
            buf[cnt[c][i] + 1] = 1
            if hi[i + 1] >= 0:
                buf[lo[i + 1] + 1 : hi[i + 1] + 2] = vals
        kids[c] = i
        if (b := hi[i]) >= 0:
            d, a = s[i - 1], lo[i]
            js = pos[d][a : b + 1]
            vals, once, top, pick, chained = repeat(2, len(js)), [], js[-1], itemgetter(*js), 0
            for c, f in kids.items():
                if nxt[f] < top:  # c occurs twice in s[i:top]: its buffer at the last c before j
                    buf = bufs[c]
                    if c == d:
                        term = buf[a : b + 1]
                    elif a < b:
                        term = itemgetter(*pick(cnt[c]))(buf)
                    else:  # one right end: pick gives one rank, not a tuple
                        term = (buf[cnt[c][top]],)
                    vals = map(add, vals, term)
                    if (chained := chained + 1) == 8:  # a long chain of maps costs more than a list
                        vals, chained = list(vals), 0
                elif f < top:  # c occurs once in s[i:top]: it adds 1 past f
                    once.append(f)
            if once:
                vals = map(add, vals, map(bisect_left, repeat(sorted(once)), js))
            vals = list(vals)
    return sum(buf[-1] for buf in bufs.values()) + len(head) - len(bufs)


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
    from .density import DensitySample, count_occurrences  # only this table loads the density layer
    from .fibonacci import infinite_prefix
    prefix = infinite_prefix(prefix_len)
    texts = ("".join(bits) for bits in product("01", repeat=length))
    pals = [Word(BINARY, t) for t in texts if t == t[::-1]]
    return {w: DensitySample(prefix_len, count=count_occurrences(w, prefix)) for w in pals}
