"""Square-free words, growth bounds, Thue-Morse, and the ternary-to-binary
square-free codec.

A square is a factor xx with x nonempty.  Over two letters only six
square-free words exist (a, b, ab, ba, aba, bab); over three letters the
count s(n) grows exponentially and the classical Brandenburg bounds
6*1.032**n <= s(n) <= 6*1.379**n are tabulated here as reported flags,
never asserted: the printed constants fail at small n (s(1) = 3 < 6.19).
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import AB, ABC, BINARY, Morphism, Word

#: Thue-Morse substitution; its fixed point from 0 is overlap-free.
THUE_MORSE_MORPHISM = Morphism(BINARY, BINARY, {"0": "01", "1": "10"})

#: The square-free codec morphism: ternary words to binary words.
DELTA_MORPHISM = Morphism(ABC, AB, {"a": "abb", "b": "ab", "c": "a"})

ENUMERATION_GUARD = 20
THUE_MORSE_GUARD = 2**20


def _square_ends_at(s: str, end: int) -> bool:
    # Any square ending at position `end` (exclusive)?
    for half in range(1, end // 2 + 1):
        if s[end - 2 * half : end - half] == s[end - half : end]:
            return True
    return False


def is_square_free(w: Word) -> bool:
    """True iff w contains no factor xx with x nonempty."""
    s = w.text
    for end in range(2, len(s) + 1):
        if _square_ends_at(s, end):
            return False
    return True


def enumerate_square_free(alphabet_size: int, n: int) -> list[Word]:
    """All square-free words of exactly length n over a 2- or 3-letter
    alphabet, in lexicographic order.

    Backtracking: a prefix with a square can never extend to a square-free
    word, so only squares ending at the appended position are checked.
    """
    alphabet = {2: AB, 3: ABC}.get(alphabet_size)
    if alphabet is None:
        raise ValueError("alphabet size must be 2 or 3")
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > ENUMERATION_GUARD:
        raise ValueError(f"enumeration is limited to n <= {ENUMERATION_GUARD}")
    out: list[str] = []

    def extend(prefix: str) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for c in alphabet.symbols:
            cand = prefix + c
            if not _square_ends_at(cand, len(cand)):
                extend(cand)

    extend("")
    return [Word(alphabet, t) for t in out]


def square_free_count(alphabet_size: int, n: int) -> int:
    """s(n): the number of square-free words of length n."""
    return len(enumerate_square_free(alphabet_size, n))


@dataclass(frozen=True)
class BoundRow:
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
    n = 1..n_max.  Reports, never asserts: small-n rows fail the printed
    lower bound."""
    if not 1 <= n_max <= ENUMERATION_GUARD:
        raise ValueError(f"n_max must be between 1 and {ENUMERATION_GUARD}")
    rows = []
    for n in range(1, n_max + 1):
        s_n = square_free_count(3, n)
        lower = 6 * 1.032**n
        upper = 6 * 1.379**n
        rows.append(BoundRow(n, s_n, lower, upper, lower <= s_n, s_n <= upper))
    return rows


def thue_morse_prefix(length: int) -> Word:
    """First `length` symbols of the Thue-Morse fixed point from 0."""
    if length < 0:
        raise ValueError("prefix length must be nonnegative")
    if length > THUE_MORSE_GUARD:
        raise ValueError(f"prefix is limited to {THUE_MORSE_GUARD} symbols")
    return Word(BINARY, THUE_MORSE_MORPHISM.fixed_point_prefix("0", length))


def _has_ones_run(z: int, k: int) -> bool:
    # Does the bitmask z contain k consecutive set bits?
    r = 1
    while z and r < k:
        m = min(r, k - r)
        z &= z >> m
        r += m
    return z != 0


def has_overlap(w: Word) -> bool:
    """True iff w contains a factor a·x·a·x·a (a a symbol, x possibly
    empty), i.e. a factor of length 2p+1 with period p."""
    # Bit i of a letter's mask is set iff symbol i is that letter, so bit i
    # of `agree` is set iff symbols i and i+p are equal; an overlap with
    # period p is p+1 consecutive agreement positions.
    rev = w.text[::-1]  # int(..., 2) reads the first character as the top bit
    masks = []
    for c in w.alphabet:
        bits = rev.translate({ord(s): "1" if s == c else "0" for s in w.alphabet})
        masks.append(int(bits or "0", 2))
    for p in range(1, (len(rev) - 1) // 2 + 1):
        agree = 0
        for m in masks:
            agree |= m & (m >> p)
        if _has_ones_run(agree, p + 1):
            return True
    return False


def delta_encode(b: Word) -> Word:
    """Apply the codec morphism a -> abb, b -> ab, c -> a."""
    return DELTA_MORPHISM.apply(b)


def delta_decode(x: Word) -> Word:
    """The unique ternary word whose image under the codec morphism is x.

    Greedy longest-match factorization into {abb, ab, a}: after each image
    the remainder must start with a, so taking a shorter match when a
    longer one fits always dead-ends, which makes greedy exact.
    """
    s = x.text
    if x.alphabet != AB:
        raise ValueError("input must be a word over {a, b}")
    if not s:
        return Word(ABC, "")
    if s[0] != "a":
        raise ValueError("no factorization: the word must start with a")
    out = []
    pos = 0
    while pos < len(s):
        if s.startswith("abb", pos):
            out.append("a")
            pos += 3
        elif s.startswith("ab", pos):
            out.append("b")
            pos += 2
        elif s[pos] == "a":
            out.append("c")
            pos += 1
        else:
            raise ValueError(f"no factorization: stray symbol at position {pos}")
    return Word(ABC, "".join(out))
