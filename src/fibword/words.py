"""Alphabets, finite words, and morphisms.

Words are immutable sequences of single-character symbols drawn from a
declared alphabet.  Every operation is pure and returns a fresh value, so
words are safe to share across threads and to use as set members or dict
keys.  A word serializes as the plain string of its symbols; the empty
word serializes as the empty string.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union


class Alphabet:
    """An ordered set of distinct single-character symbols.

    The order is fixed at construction and drives every lexicographic
    enumeration in the library, so results are deterministic.
    """

    __slots__ = ("symbols", "_ranks")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("an alphabet needs at least one symbol")
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate symbols in alphabet: {syms!r}")
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"symbols must be single characters, got {s!r}")
        self.symbols = syms
        self._ranks = {s: i for i, s in enumerate(syms)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._ranks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def rank(self, symbol: str) -> int:
        """Position of a symbol in the alphabet order."""
        try:
            return self._ranks[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in {self!r}") from None

    def sort_key(self, text: str) -> tuple[int, ...]:
        """Key for sorting strings lexicographically under alphabet order."""
        return tuple(self._ranks[c] for c in text)

    def word(self, text: str = "") -> "Word":
        """Build a word over this alphabet from its string form."""
        return Word(self, text)


#: Built-in alphabets used throughout: the binary digits and two short
#: letter alphabets.
BINARY = Alphabet("01")
AB = Alphabet("ab")
ABC = Alphabet("abc")


class Word:
    """An immutable finite word over a fixed alphabet (possibly empty)."""

    __slots__ = ("alphabet", "text")

    def __init__(self, alphabet: Alphabet, text: str = ""):
        if not isinstance(text, str):
            text = "".join(text)
        if text and not set(text) <= set(alphabet._ranks):
            bad = sorted(set(text) - set(alphabet._ranks))
            raise ValueError(f"symbols {bad!r} not in {alphabet!r}")
        self.alphabet = alphabet
        self.text = text

    def __len__(self) -> int:
        return len(self.text)

    def __bool__(self) -> bool:
        return bool(self.text)

    def __iter__(self) -> Iterator[str]:
        return iter(self.text)

    def __getitem__(self, key: Union[int, slice]) -> Union[str, "Word"]:
        if isinstance(key, slice):
            return Word(self.alphabet, self.text[key])
        return self.text[key]

    def __add__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.text == other.text and self.alphabet == other.alphabet

    def __hash__(self) -> int:
        return hash((self.alphabet.symbols, self.text))

    def __lt__(self, other: "Word") -> bool:
        _require_same_alphabet(self, other)
        return self.alphabet.sort_key(self.text) < other.alphabet.sort_key(other.text)

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Word({self.text!r}, alphabet={''.join(self.alphabet.symbols)!r})"

    def reverse(self) -> "Word":
        """The mirror image of this word."""
        return Word(self.alphabet, self.text[::-1])


class Morphism:
    """A total map from alphabet symbols to nonempty words, extended to
    whole words by symbolwise concatenation."""

    __slots__ = ("domain", "codomain", "images", "_table")

    def __init__(
        self,
        domain: Alphabet,
        codomain: Alphabet,
        images: Mapping[str, Union[str, Word]],
    ):
        resolved: dict[str, Word] = {}
        for sym in domain.symbols:
            if sym not in images:
                raise ValueError(f"no image defined for symbol {sym!r}")
            img = images[sym]
            if isinstance(img, str):
                img = Word(codomain, img)
            elif img.alphabet != codomain:
                raise ValueError(f"image of {sym!r} is not over the codomain")
            if len(img) == 0:
                raise ValueError(f"image of {sym!r} must be nonempty")
            resolved[sym] = img
        extra = set(images) - set(domain.symbols)
        if extra:
            raise ValueError(f"images given for symbols outside the domain: {sorted(extra)!r}")
        self.domain = domain
        self.codomain = codomain
        self.images = resolved
        self._table = {ord(sym): img.text for sym, img in resolved.items()}

    def image(self, symbol: str) -> Word:
        """Image of a single domain symbol."""
        try:
            return self.images[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} not in the domain") from None

    def apply_text(self, text: str) -> str:
        """Apply the morphism to a raw symbol string (fast path)."""
        return text.translate(self._table)

    def fixed_point_prefix(self, seed: str, length: int) -> str:
        """First `length` symbols of the iterates from `seed`: the prefix of
        the fixed point when the image of `seed` starts with `seed`."""
        text = seed
        while len(text) < length:
            grown = self.apply_text(text)
            if len(grown) == len(text):
                raise ValueError(f"the iterates from {seed!r} stop growing")
            text = grown
        return text[:length]

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.domain:
            raise ValueError("word is not over the morphism's domain")
        return Word(self.codomain, self.apply_text(w.text))

    __call__ = apply

    def __repr__(self) -> str:
        rules = ", ".join(f"{s}->{img.text}" for s, img in self.images.items())
        return f"Morphism({rules})"


def _require_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise ValueError(f"alphabet mismatch: {u.alphabet!r} vs {v.alphabet!r}")


def concat(u: Word, v: Word) -> Word:
    """Concatenation u·v.  Length is additive and letter counts distribute."""
    _require_same_alphabet(u, v)
    return Word(u.alphabet, u.text + v.text)


def letter_count(w: Word, symbol: str) -> int:
    """Number of positions of w holding the given symbol."""
    if symbol not in w.alphabet:
        raise ValueError(f"symbol {symbol!r} not in {w.alphabet!r}")
    return w.text.count(symbol)


def apply_morphism(m: Morphism, w: Word) -> Word:
    """Symbolwise image concatenation, order preserved."""
    return m.apply(w)


def is_factor(v: Word, x: Word) -> bool:
    """True iff v occurs contiguously in x.  The empty word is a factor of
    every word."""
    _require_same_alphabet(v, x)
    return v.text in x.text


def is_scattered_subword(v: Word, x: Word) -> bool:
    """True iff v is a subsequence of x (symbols in order, not necessarily
    contiguous)."""
    _require_same_alphabet(v, x)
    it = iter(x.text)
    return all(c in it for c in v.text)


def distinct_factors(w: Word, k: int) -> list[Word]:
    """All distinct length-k factors of w, in lexicographic order under the
    alphabet order.  k larger than |w| yields the empty list; k = 0 yields
    the empty word."""
    if k < 0:
        raise ValueError("factor length must be nonnegative")
    text = w.text
    if k > len(text):
        return []
    seen = {text[i : i + k] for i in range(len(text) - k + 1)}
    return [Word(w.alphabet, t) for t in sorted(seen, key=w.alphabet.sort_key)]
