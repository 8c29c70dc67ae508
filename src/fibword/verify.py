"""Differential verify suites: each counting routine against fibword.oracle.

``SUITES`` holds (name, suite) pairs; each suite tallies one mismatch flag per case into
(ok, detail) and seeds its own generator, so it draws the same cases alone as in a full run.
``fibword verify`` runs them through ``run``; ``tests/test_verify.py`` iterates them.
"""

from __future__ import annotations

import marshal
import os
import random
from collections.abc import Callable, Iterator
from functools import partial
from itertools import chain, product
from operator import ne

from . import oracle
from .density import IntegralParams, count_occurrences, integral_density
from .fibonacci import infinite_prefix, nth_symbol
from .palindromes import pal_factors, sp_count
from .squarefree import (delta_decode, delta_encode, enumerate_square_free, has_overlap,
                         is_square_free, thue_morse_prefix)
from .words import AB, ABC, BINARY, Alphabet, Word, distinct_factors

SEED = 20240517


def _tally(label: str, cases: Callable[[], Iterator[bool]]) -> tuple[bool, str]:
    """Run ``cases``, which yields one mismatch flag per case, and count cases and mismatches.
    The detail is ``label`` formatted with the case count (a label without "{}" omits it)."""
    misses = list(cases())
    bad = sum(misses)
    return bad == 0, f"{label.format(len(misses))}, {bad} mismatches"


def _random_word(rng: random.Random, alphabet: Alphabet, least: int, most: int) -> Word:
    # a uniform length in [least, most], then that many uniform symbols in one draw
    return Word(alphabet, "".join(rng.choices(alphabet.symbols, k=rng.randint(least, most))))


def _occurrence_count() -> Iterator[bool]:
    # occurrence counting vs all-windows scan; each text's masks are parsed once, for all its patterns
    rng = random.Random(SEED)
    patterns = {plen: [Word(BINARY, "".join(pb)) for pb in product("01", repeat=plen)] for plen in range(1, 4)}
    texts = ((tlen, Word(BINARY, "".join(tb))) for tlen in range(1, 9) for tb in product("01", repeat=tlen))
    cases = chain(
        ((p, t) for tlen, t in texts for plen in range(1, min(3, tlen) + 1) for p in patterns[plen]),
        ((_random_word(rng, BINARY, 1, 8), _random_word(rng, BINARY, 1, 64)) for _ in range(300)),
    )
    return (count_occurrences(p, t) != oracle.brute_count(p, t) for p, t in cases)


def _scattered_palindromes() -> Iterator[bool]:
    # scattered-palindrome DP vs subset enumeration along the trie of words
    counts = oracle.brute_sp_counts("01", 10)
    words = (Word(BINARY, "".join(b)) for n in range(1, 11) for b in product("01", repeat=n))
    return (sp_count(w) != counts[w.text] for w in words)


def _palindromic_factors() -> Iterator[bool]:
    # palindromic factor sets: eertree vs the brute scan around every centre
    rng = random.Random(SEED)
    words = (_random_word(rng, AB, 0, 120) for _ in range(150))
    return ({f.text for f in pal_factors(w).pal_factors} != oracle.brute_pal_factor_texts(w.text) for w in words)


def _square_free_enumeration() -> Iterator[bool]:
    # square-free enumeration vs the oracle's level-by-level growth
    for size, n in product((2, 3), range(9)):
        yield enumerate_square_free(size, n) != oracle.brute_square_free_words(size, n)


def _square_free_test() -> Iterator[bool]:
    # square and overlap tests vs all-windows scans, on joins of two factors of
    # an overlap-free binary word and a square-free ternary word
    rng = random.Random(SEED)
    t = thue_morse_prefix(257).text
    ternary = "".join("abc"[int(y) - int(x) + 1] for x, y in zip(t, t[1:]))

    def factor(s: str) -> str:
        i = rng.randrange(len(s))
        return s[i : i + rng.randint(0, 16)]

    words = (Word(a, factor(s) + factor(s)) for a, s in ((BINARY, t), (ABC, ternary)) for _ in range(40))
    return (
        is_square_free(w) == oracle.brute_square_scan(w) or has_overlap(w) != oracle.brute_overlap_scan(w)
        for w in words
    )


def _codec_round_trip() -> Iterator[bool]:
    # codec round-trip and uniqueness
    rng = random.Random(SEED)
    for source in (_random_word(rng, ABC, 1, 80) for _ in range(200)):
        image = delta_encode(source)
        yield delta_decode(image) != source or oracle.delta_factorizations(image) != [source]


def _integral_dual_path() -> Iterator[bool]:
    # integral model: integral_density refuses quadrature and closed form that disagree
    grid = product((0.5, 1.0, 2.0, 5.0), (0.5, 1.0, 2.0), ((0.0, 1.0), (0.0, 10.0), (1.0, 3.0)))
    for k, tau, (a, b) in grid:
        try:
            integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))
            yield False
        except ValueError:
            yield True


def _symbol_access() -> Iterator[bool]:
    # direct symbol access vs generated prefix
    return map(ne, map(nth_symbol, range(20000)), infinite_prefix(20000).text)


def _factor_complexity() -> Iterator[bool]:
    # factor complexity of the infinite word: k+1 distinct factors
    prefix = infinite_prefix(610)
    for k in range(1, 13):
        mine = distinct_factors(prefix, k)
        yield len(mine) != k + 1 or set(mine) != oracle.brute_factor_set(prefix, k)


SUITES = (
    ("occurrence-count", partial(_tally, "{} cases", _occurrence_count)),
    ("scattered-palindromes", partial(_tally, "{} words", _scattered_palindromes)),
    ("palindromic-factors", partial(_tally, "{} words", _palindromic_factors)),
    ("square-free-enumeration", partial(_tally, "alphabets 2,3 n<=8", _square_free_enumeration)),
    ("square-free-test", partial(_tally, "{} words", _square_free_test)),
    ("codec-round-trip", partial(_tally, "{} words", _codec_round_trip)),
    ("integral-dual-path", partial(_tally, "{} grid points", _integral_dual_path)),
    ("symbol-access", partial(_tally, "{} symbols", _symbol_access)),
    ("factor-complexity", partial(_tally, "k<=12", _factor_complexity)),
)


def run() -> list[tuple[str, bool, str]]:
    """Every suite's (name, ok, detail), in ``SUITES`` order.  This process and one child forked here
    pull suite indices from one pipe; a suite the child did not send back (it raised or died) runs here.
    A fork copies only the calling thread, so call this from a process that runs no other thread."""
    todo, fill = os.pipe()
    os.write(fill, bytes(range(len(SUITES))))
    os.close(fill)
    back, send = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork here, or no process to be had: this one runs them all
        pid = -1
    done: dict[int, tuple[bool, str]] = {}
    try:
        while index := os.read(todo, 1):
            done[index[0]] = SUITES[index[0]][1]()
    finally:
        if pid == 0:  # the child sends what it finished, raised or not, and leaves without clean-up
            try:
                os.write(send, marshal.dumps(done))
            finally:
                os._exit(0)
        for fd in (todo, send):
            os.close(fd)
        with open(back, "rb") as got:  # read to its end, which comes when the child exits
            done.update(marshal.loads(got.read() or marshal.dumps({})))
        if pid > 0:
            os.waitpid(pid, 0)
    return [(name, *(done[i] if i in done else suite())) for i, (name, suite) in enumerate(SUITES)]
