"""Brute-force reference implementations.

Everything here recomputes results straight from definitions, within small
size guards, and deliberately shares no logic with the main modules.  The
test suite and the CLI `verify` command compare the two sides; users can
re-derive any published number the same way.
"""

from __future__ import annotations

from .words import AB, ABC, Word

SP_GUARD = 20
SP_WORDS_GUARD = 2**15  # brute_sp_counts' words, the empty one included: binary to length 14
SQUARE_GUARD = 1000


def _palindromic_subsequences(w: Word) -> set[str]:
    """The distinct nonempty palindromic subsequences of w, filtered from all its subsequences."""
    if len(w) > SP_GUARD:
        raise ValueError(f"brute enumeration is limited to |w| <= {SP_GUARD}")
    subs = {""}
    for ch in w.text:
        subs |= {t + ch for t in subs}
    return {t for t in subs if t and t == t[::-1]}


def brute_sp_count(w: Word) -> int:
    """Distinct nonempty palindromic subsequences, by subset enumeration."""
    return len(_palindromic_subsequences(w))


def brute_sp_enumerate(w: Word) -> set[Word]:
    """The set of distinct nonempty palindromic subsequences of w."""
    return {Word(w.alphabet, t) for t in _palindromic_subsequences(w)}


def brute_sp_counts(symbols: str, n_max: int) -> dict[str, int]:
    """brute_sp_count of every word of length 1..n_max over symbols, by text, walking the trie of words: w·c's
    subsequences are w's and each of them followed by c, and w·c's count adds the new ones that are palindromes."""
    if (words := sum(len(symbols) ** k for k in range(n_max + 1))) > SP_WORDS_GUARD:
        raise ValueError(f"brute enumeration is limited to {SP_WORDS_GUARD} words; this call needs {words}")
    counts: dict[str, int] = {}

    def walk(w: str, subs: set[str], count: int) -> None:
        for c in symbols:
            new = {t + c for t in subs} - subs
            counts[w + c] = grown = count + sum(1 for t in new if t == t[::-1])
            if len(w) + 1 < n_max:
                walk(w + c, subs | new, grown)

    walk("", {""}, 0)
    return counts


def brute_count(pattern: Word, text: Word) -> int:
    """Occurrences of pattern in text by scanning every window."""
    p, t = pattern.text, text.text
    if not p:
        raise ValueError("pattern must be nonempty")
    return sum(1 for i in range(len(t) - len(p) + 1) if t[i : i + len(p)] == p)


def _repeat_scan(s: str, e: int) -> bool:
    """True iff s[i : i + p + e] == s[i + p : i + 2p + e] for some start i and period p >= 1: a factor
    xx for e = 0, a factor a·x·a·x·a for e = 1."""
    n = len(s)
    for i in range(n):
        for p in range(1, (n - i - e) // 2 + 1):
            if s[i : i + p + e] == s[i + p : i + 2 * p + e]:
                return True
    return False


def brute_square_scan(w: Word) -> bool:
    """True iff w contains a factor xx, by trying every start and length."""
    if len(w) > SQUARE_GUARD:
        raise ValueError(f"brute scan is limited to |w| <= {SQUARE_GUARD}")
    return _repeat_scan(w.text, 0)


def brute_overlap_scan(w: Word) -> bool:
    """True iff w contains a factor a·x·a·x·a, by trying every start and period."""
    return _repeat_scan(w.text, 1)


def brute_factor_set(w: Word, k: int) -> set[Word]:
    """All distinct length-k factors, by slicing every window; one Word per distinct string."""
    if k < 0:
        raise ValueError("factor length must be nonnegative")
    text = w.text
    return {Word(w.alphabet, t) for t in {text[i : i + k] for i in range(len(text) - k + 1)}}


def brute_pal_factor_texts(text: str) -> set[str]:
    """All distinct nonempty palindromic factors of text, grown one matching pair of ends at a
    time from each of the 2n - 1 centres (a letter, or the gap between two)."""
    n, found = len(text), set()
    for centre in range(2 * n - 1):
        i, j = centre // 2, (centre + 1) // 2
        while i >= 0 and j < n and text[i] == text[j]:
            found.add(text[i : j + 1])
            i, j = i - 1, j + 1
    return found


def brute_pal_factor_set(w: Word) -> set[Word]:
    """brute_pal_factor_texts of w, one Word each."""
    return {Word(w.alphabet, t) for t in brute_pal_factor_texts(w.text)}


def brute_square_free_words(alphabet_size: int, n: int) -> list[Word]:
    """Square-free words of length n, grown level by level: each word of the level before followed by
    each letter in alphabet order, kept when the all-pairs square scan finds no square."""
    alphabet = {2: AB, 3: ABC}.get(alphabet_size)
    if alphabet is None:
        raise ValueError("alphabet size must be 2 or 3")
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > 15:
        raise ValueError("brute enumeration is limited to n <= 15")
    level = [""]
    for _ in range(n):
        candidates = (t + c for t in level for c in alphabet.symbols)
        level = [t for t in candidates if not brute_square_scan(Word(alphabet, t))]
    return [Word(alphabet, t) for t in level]


def delta_factorizations(x: Word) -> list[Word]:
    """Every ternary word whose image under a -> abb, b -> ab, c -> a is x,
    found by full backtracking (used to confirm the factorization is
    unique)."""
    s = x.text
    results: list[str] = []
    acc: list[str] = []

    def rec(pos: int) -> None:
        if pos == len(s):
            results.append("".join(acc))
            return
        for image, letter in (("abb", "a"), ("ab", "b"), ("a", "c")):
            if s.startswith(image, pos):
                acc.append(letter)
                rec(pos + len(image))
                acc.pop()

    rec(0)
    return [Word(ABC, t) for t in results]
