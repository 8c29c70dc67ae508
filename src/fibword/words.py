"""Alphabets, finite words, and morphisms.

Words are immutable sequences of single-character symbols drawn from a
declared alphabet.  Every operation is pure and returns a fresh value, so
words are safe to share across threads and to use as set members or dict
keys; the one slot filled later, a word's letter masks, is idempotent.  A
word serializes as the plain string of its symbols; the empty word
serializes as the empty string.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

#: Every size guard, as name: (limit, unit, cost at the limit on a 2-CPU VM, Python 3.11); see _admit.
GUARDS = {
    "generation": (2**29, "symbols", "1.55-1.69 GB and 4-14 s"),  # fixed_point_prefix, fib_word
    "distinct_factors": (10**8, "characters of sliced blocks and distinct factors", "95-744 MB and 0.09-23 s"),
    "pal_factors": (10**8, "characters of factors", "~113 MB and ~0.1 s"),  # the eertree's running total
    "sp_count": (10**4, "symbols", "0.9-3.1 s and 4-5 MB on random words"),
    "sp_slots": (12 * 10**6, "count slots, |w| + 1 per repeated letter", "~97 MB and 6.8 s"),  # ~8 bytes each
    "enumeration": (20, "symbols", "20-35 ms and under 1 MB"),  # square-free words and their counts
    "repetition_test": (2**35, "letters times symbols squared", "0.66-0.87 s on 2-3,250 letters"),  # |w|**2/64 a letter
    "fuzzy_fib_word": (30, "steps", "3.7 s and 229 MB as JSON"),
    "ratio_curve": (10**4, "samples", "7.5 ms and 6.4 MB"),
    "letter_density_curve": (10**6, "samples", "~88 bytes each: 216-366 MB and 2.9-6.7 s through the CLI"),
    "catalan_table": (200, "rows", "2.1 ms"),
    "limit_function_g": (10**5, "for the index n", "0.42-0.46 s and under 1 MB"),  # math.comb(2n, n) is most of it
    "fib_word_at_catalan": (30, "for the word index C_n", "0.7-1.1 ms and 1.6 MB"),
}


def _admit(name: str, need: int, read: int | None = None, shown: str | None = None) -> None:
    """Refuse a need past guard `name`, with the limit, its unit and cost, the need (or `shown` in its place,
    for a need too large to print) and the symbols read if given."""
    limit, unit, cost = GUARDS[name]
    if need > limit:
        needs = "this input needs" if read is None else f"its first {read} symbols need"
        raise ValueError(f"{name} is limited to {limit} {unit} ({cost} at the limit); {needs} {shown or need}")


class _DataclassFields:  # dataclasses is imported only when its functions ask for a record's fields
    def __get__(self, record: object, cls: type[_Record]) -> dict:
        import dataclasses
        twin = type(cls.__name__, (), {"__annotations__": cls.__annotations__, **cls._defaults})
        cls.__dataclass_fields__ = dataclasses.dataclass(frozen=True)(twin).__dataclass_fields__
        return cls.__dataclass_fields__  # stored on cls, they stand in for this descriptor from now on


class _Record:
    """Base of the frozen result records.  A subclass declares its fields as annotations (a class
    value is the default); __init__ takes them by position or keyword, then runs __post_init__'s
    checks.  As a frozen dataclass (dataclasses.fields/asdict/replace accept it), a record equals and
    hashes by its fields only in its class, prints as ``Name(field=value, ...)``, refuses assignment."""

    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) or len(values) < len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self.__dict__.update((name, values[name]) for name in names)  # vars(record) in field order
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a subclass with constraints overrides this."""

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class Alphabet:
    """An ordered set of distinct single-character symbols.

    The order is fixed at construction and drives every lexicographic
    enumeration in the library, so results are deterministic.
    """

    __slots__ = ("symbols", "_rank_table", "_code_point_order", "_delete")

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
        self._rank_table = {ord(s): chr(i) for i, s in enumerate(syms)}
        self._code_point_order = list(syms) == sorted(syms)  # then plain string order is this order
        self._delete = dict.fromkeys(map(ord, syms))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __reduce__(self) -> tuple:
        return Alphabet, (self.symbols,)  # slots alone do not pickle at protocols 0 and 1

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r})"

    def sort_key(self, text: str) -> str:
        """Key for sorting strings lexicographically under alphabet order:
        the text with each symbol replaced by the character of its rank."""
        return text.translate(self._rank_table)

    def sort_texts(self, texts: Iterable[str]) -> list[str]:
        """Strings over this alphabet, sorted lexicographically under its order:
        by code point with no per-string key when the symbols are in code-point order."""
        return sorted(texts) if self._code_point_order else sorted(texts, key=self.sort_key)

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

    __slots__ = ("alphabet", "text", "_masks")

    def __init__(self, alphabet: Alphabet, text: str = ""):
        if foreign := text.translate(alphabet._delete):
            raise ValueError(f"symbols {sorted(set(foreign))!r} not in {alphabet!r}")
        self.alphabet, self.text, self._masks = alphabet, text, None  # _letter_masks fills _masks

    def __reduce__(self) -> tuple:
        return Word, (self.alphabet, self.text)  # pickles and copies carry no masks

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[str]:
        return iter(self.text)

    def __getitem__(self, key: int | slice) -> str | Word:
        if isinstance(key, slice):
            return _unchecked_word(self.alphabet, self.text[key])
        return self.text[key]

    def __add__(self, other: "Word") -> "Word":
        """Concatenation.  Length is additive and letter counts distribute."""
        _require_same_alphabet(self, other)
        return _unchecked_word(self.alphabet, self.text + other.text)

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


class Morphism:
    """A total map from alphabet symbols to nonempty words, extended to
    whole words by symbolwise concatenation."""

    __slots__ = ("domain", "codomain", "images", "_table")

    def __init__(self, domain: Alphabet, codomain: Alphabet, images: Mapping[str, str]):
        resolved: dict[str, Word] = {}
        for sym in domain.symbols:
            if sym not in images:
                raise ValueError(f"no image defined for symbol {sym!r}")
            if not images[sym]:
                raise ValueError(f"image of {sym!r} must be nonempty")
            resolved[sym] = Word(codomain, images[sym])
        extra = set(images) - set(domain.symbols)
        if extra:
            raise ValueError(f"images given for symbols outside the domain: {sorted(extra)!r}")
        self.domain = domain
        self.codomain = codomain
        self.images = resolved
        self._table = {ord(sym): img.text for sym, img in resolved.items()}

    def _step(self, images: Mapping[str, str]) -> dict[str, str]:
        """Map c -> h(phi^k(c)) to c -> h(phi^(k+1)(c)), the join of h(phi^k(d))
        over the letters d of phi(c).  Every generated word comes from this step."""
        return {c: "".join([images[d] for d in img.text]) for c, img in self.images.items()}

    def fixed_point_prefix(self, seed: str, length: int) -> str:
        """First `length` symbols of the iterates from the symbol `seed`: the
        prefix of the fixed point when the image of `seed` starts with it."""
        if self.codomain != self.domain or seed not in self.domain:
            raise ValueError(f"cannot iterate {self!r} from {seed!r}")
        if length < 0:
            raise ValueError("prefix length must be nonnegative")
        _admit("generation", length)
        images, seed_image = {c: c for c in self.domain.symbols}, self.images[seed].text
        idle = 0  # steps without growth; len(domain) in a row mean it never grows again
        while len(images[seed]) < length:
            if (grown := sum(len(images[d]) for d in seed_image)) >= length:  # last step: seed's image only
                text, images = "".join([images[d] for d in seed_image]), None  # the rest go before the slice
                return text[:length]
            idle = idle + 1 if grown == len(images[seed]) else 0
            if idle == len(self.domain):
                raise ValueError(f"the iterates from {seed!r} stop growing")
            images = self._step(images)
        return images[seed][:length]

    def apply(self, w: Word) -> Word:
        """Symbolwise image concatenation, order preserved."""
        if w.alphabet != self.domain:
            raise ValueError("word is not over the morphism's domain")
        return _unchecked_word(self.codomain, w.text.translate(self._table))

    def __repr__(self) -> str:
        rules = ", ".join(f"{s}->{img.text}" for s, img in self.images.items())
        return f"Morphism({rules})"


def _unchecked_word(alphabet: Alphabet, text: str) -> Word:
    """A Word built without validation, for text already known to be over
    alphabet (a slice or join of words over it)."""
    w = object.__new__(Word)
    w.alphabet, w.text, w._masks = alphabet, text, None
    return w


def _require_same_alphabet(u: Word, v: Word) -> None:
    if u.alphabet != v.alphabet:
        raise ValueError(f"alphabet mismatch: {u.alphabet!r} vs {v.alphabet!r}")


def _letter_masks(w: Word) -> dict[str, int]:
    """One bitmask per letter, built on w's first call and kept on w: bit i is set iff w.text[i] is that
    letter.  Parsed but for the last letter's, the complement of the others; infinite_prefix sets them on
    the prefixes it cuts.  Racing threads may keep either build."""
    if (masks := w._masks) is not None:
        return masks
    text, symbols = w.text, w.alphabet.symbols
    rev, masks, table = text[::-1], {}, dict.fromkeys(map(ord, symbols), "0")
    for c in symbols[:-1]:  # that letter alone "1"; int(rev, 2) has bit i for text[i]
        table[ord(c)] = "1"
        masks[c], table[ord(c)] = int(rev.translate(table) or "0", 2), "0"
    masks[symbols[-1]] = ((1 << len(text)) - 1) ^ sum(masks.values())  # disjoint masks
    w._masks = masks
    return masks


def distinct_factors(w: Word, k: int) -> list[Word]:
    """All distinct length-k factors of w, in lexicographic order under the
    alphabet order.  k larger than |w| yields the empty list; k = 0 yields
    the empty word."""
    if k < 0:
        raise ValueError("factor length must be nonnegative")
    text, blocks, seen, limit = w.text, set(), set(), GUARDS["distinct_factors"][0]
    block_chars = factor_chars = 0
    every = len(w.alphabet) ** min(k, 64)  # all sigma^k factors; sigma^64 serves past k = 64, as no text holds 2**64
    # window i is cuts[i % 64] of the block at i - i % 64; only a new block is cut up, but every one is charged
    cuts = [slice(j, j + k) for j in range(64)]
    for s in range(0, len(text) - k + 1, 64):
        block_chars += len(block := text[s : s + k + 63])
        if block not in blocks:
            blocks.add(block)
            seen.update(map(block.__getitem__, cuts[: len(block) - k + 1]))
            factor_chars = len(seen) * k
        if (held := block_chars + factor_chars) > limit:
            _admit("distinct_factors", held, s + len(block))
        if len(seen) == every:  # every factor is held, and charged: no later block can add one
            break
    return [_unchecked_word(w.alphabet, t) for t in w.alphabet.sort_texts(seen)]
