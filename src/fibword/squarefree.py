"""Square-free words, growth bounds, Thue-Morse, and the ternary-to-binary
square-free codec.

A square is a factor xx with x nonempty.  Over two letters only six
square-free words exist (a, b, ab, ba, aba, bab); over three letters the
count s(n) grows exponentially and the classical Brandenburg bounds
6*1.032**n <= s(n) <= 6*1.379**n are tabulated here as reported flags,
never asserted: the printed constants fail at small n (s(1) = 3 < 6.19).
"""

from __future__ import annotations

from .words import AB, ABC, BINARY, Morphism, Word, _admit, _letter_masks, _Record, _unchecked_word

#: Thue-Morse substitution; its fixed point from 0 is overlap-free.
THUE_MORSE_MORPHISM = Morphism(BINARY, BINARY, {"0": "01", "1": "10"})

#: The square-free codec morphism: ternary words to binary words.
DELTA_MORPHISM = Morphism(ABC, AB, {"a": "abb", "b": "ab", "c": "a"})
_DELTA_SYMBOLS = str.maketrans("012", "abc")  # delta_decode's stand-ins for the images abb, ab, a

_SQUARE_FREE_ALPHABETS = {2: AB, 3: ABC}
_levels = {2: (("",),), 3: (("",),)}  # per alphabet size, the sorted levels 0.. built so far


def is_square_free(w: Word) -> bool:
    """True iff w contains no factor xx with x nonempty."""
    return not _has_periodic_factor(w, 0)


def _square_free_levels(alphabet_size: int, n: int) -> tuple[tuple[str, ...], ...]:
    """The sorted square-free words of each length 0..n over a 2- or 3-letter
    alphabet, one tuple per length, read from the levels this process has
    built for that alphabet; only the lengths past them are built, and the
    guard is checked on every call.  Each word of a level is extended by each
    letter c in alphabet order, so every level comes out sorted.  The word p is
    square-free, so only a square xx ending at the new c can appear, and the
    first x ends in c too: only the halves L - q with p[q] == c are compared,
    L = |p|."""
    alphabet = _SQUARE_FREE_ALPHABETS.get(alphabet_size)
    if alphabet is None:
        raise ValueError("alphabet size must be 2 or 3")
    if n < 0:
        raise ValueError("length must be nonnegative")
    _admit("enumeration", n)  # s(n) grows ~1.3x per letter
    if n >= len(levels := _levels[alphabet_size]):
        for length in range(len(levels) - 1, n):
            lo, grown = length // 2, []  # a half is at most ceil(L/2) long: q >= L // 2
            for p in levels[-1]:
                for c in alphabet.symbols:
                    w, q = p + c, p.rfind(c, lo)
                    while q >= 0 and not w.endswith(w[2 * q - length + 1 : q + 1]):
                        q = p.rfind(c, lo, q)
                    if q < 0:
                        grown.append(w)
            levels += (tuple(grown),)
        _levels[alphabet_size] = levels  # published whole, once: racing threads may build a level twice
    return levels[: n + 1]


def enumerate_square_free(alphabet_size: int, n: int) -> list[Word]:
    """All square-free words of exactly length n over a 2- or 3-letter
    alphabet, in lexicographic order."""
    texts = _square_free_levels(alphabet_size, n)[n]
    return [_unchecked_word(_SQUARE_FREE_ALPHABETS[alphabet_size], t) for t in texts]


def square_free_count(alphabet_size: int, n: int) -> int:
    """s(n): the number of square-free words of length n."""
    return len(_square_free_levels(alphabet_size, n)[n])


class BoundRow(_Record):
    """One row of the growth-bound table, with both bound flags computed
    from the inequalities exactly as printed."""

    n: int
    s_n: int
    lower: float
    upper: float
    lower_holds: bool
    upper_holds: bool


def brandenburg_table(n_max: int) -> list[BoundRow]:
    """Rows (n, s(n), 6*1.032**n, 6*1.379**n, flags) for ternary words,
    n = 1..n_max, each s(n) read off the kept levels.  Reports, never
    asserts: small-n rows fail the printed lower bound."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    rows = []
    for n, level in enumerate(_square_free_levels(3, n_max)[1:], 1):
        s_n, lower, upper = len(level), 6 * 1.032**n, 6 * 1.379**n
        rows.append(BoundRow(n, s_n, lower, upper, lower <= s_n, s_n <= upper))
    return rows


def thue_morse_prefix(length: int) -> Word:
    """First `length` symbols of the Thue-Morse fixed point from 0."""
    return _unchecked_word(BINARY, THUE_MORSE_MORPHISM.fixed_point_prefix("0", length))


def _has_periodic_factor(w: Word, extra: int) -> bool:
    """Does w have a factor of length 2p + extra with period p, for some p >= 1?
    A square is extra = 0, an overlap extra = 1."""
    _admit("repetition_test", sum(c in w.text for c in w.alphabet.symbols) * len(w) ** 2)  # before any mask is built
    # Bit i of a letter's mask is set iff symbol i is that letter, so bit i
    # of z is set iff symbols i and i+p are equal; such a factor is k =
    # p + extra agreement positions in a row.  Doubling r, bit i of z stays
    # set iff bits i..i+r-1 were; one last shift by k - r <= r reaches k.
    masks = _letter_masks(w).values()
    for p in range(1, (len(w) - extra) // 2 + 1):
        z = 0
        for m in masks:
            z |= m & (m >> p)
        r, k = 1, p + extra
        while z and r + r <= k:
            z &= z >> r
            r += r
        if z & z >> (k - r):
            return True
    return False


def has_overlap(w: Word) -> bool:
    """True iff w contains a factor a·x·a·x·a (a a symbol, x possibly
    empty), i.e. a factor of length 2p+1 with period p."""
    return _has_periodic_factor(w, 1)


def delta_encode(b: Word) -> Word:
    """Apply the codec morphism a -> abb, b -> ab, c -> a."""
    return DELTA_MORPHISM.apply(b)


def delta_decode(x: Word) -> Word:
    """The unique ternary word whose image under the codec morphism is x.

    Each image abb, ab, a is one a followed by 2, 1 or 0 b's.  Replacing the
    images longest first, by 0, 1 and 2, leaves a b only where none fits.
    """
    if x.alphabet != AB:
        raise ValueError("input must be a word over {a, b}")
    t = x.text.replace("abb", "0").replace("ab", "1").replace("a", "2")
    if (j := t.find("b")) == 0:
        raise ValueError("no factorization: the word must start with a")
    if j > 0:  # the first stray b: each 0 before it stood for 3 symbols of x and each 1 for 2
        pos = j + 2 * t.count("0", 0, j) + t.count("1", 0, j)
        raise ValueError(f"no factorization: stray symbol at position {pos}")
    return _unchecked_word(ABC, t.translate(_DELTA_SYMBOLS))
