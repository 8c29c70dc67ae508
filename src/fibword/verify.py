"""Differential verify suites: each counting routine against fibword.oracle.

``SUITES`` holds (name, suite) pairs; each suite returns (ok, detail) and
seeds its own generator, so it draws the same cases alone as in a full run.
``fibword verify`` and ``tests/test_verify.py`` both iterate it.
"""

from __future__ import annotations

import random
from itertools import chain, product

from . import oracle
from .density import IntegralParams, count_occurrences, integral_density
from .fibonacci import infinite_prefix, nth_symbol
from .palindromes import pal_factors, sp_count
from .squarefree import (delta_decode, delta_encode, enumerate_square_free, has_overlap,
                         is_square_free, thue_morse_prefix)
from .words import AB, ABC, BINARY, Word, distinct_factors

SEED = 20240517


def _occurrence_count() -> tuple[bool, str]:
    # occurrence counting vs all-windows scan
    rng = random.Random(SEED)

    def draw(most: int) -> Word:
        return Word(BINARY, "".join(rng.choice("01") for _ in range(rng.randint(1, most))))

    cases = chain(
        (
            (Word(BINARY, "".join(pb)), Word(BINARY, "".join(tb)))
            for tlen in range(1, 9)
            for tb in product("01", repeat=tlen)
            for plen in range(1, min(3, tlen) + 1)
            for pb in product("01", repeat=plen)
        ),
        ((draw(8), draw(64)) for _ in range(300)),
    )
    misses = [count_occurrences(p, t) != oracle.brute_count(p, t) for p, t in cases]
    return not any(misses), f"{len(misses)} cases, {sum(misses)} mismatches"


def _scattered_palindromes() -> tuple[bool, str]:
    # scattered-palindrome DP vs subset enumeration
    words = (Word(BINARY, "".join(b)) for n in range(1, 11) for b in product("01", repeat=n))
    misses = [sp_count(w) != oracle.brute_sp_count(w) for w in words]
    return not any(misses), f"{len(misses)} words, {sum(misses)} mismatches"


def _palindromic_factors() -> tuple[bool, str]:
    # palindromic factor sets: eertree vs brute filter
    rng = random.Random(SEED)
    words = (Word(AB, "".join(rng.choice("ab") for _ in range(rng.randint(0, 120))))
             for _ in range(150))
    bad = sum(set(pal_factors(w).pal_factors) != oracle.brute_pal_factor_set(w) for w in words)
    return bad == 0, f"150 words, {bad} mismatches"


def _square_free_enumeration() -> tuple[bool, str]:
    # square-free enumeration vs brute backtracking
    bad = sum(
        enumerate_square_free(size, n) != oracle.brute_square_free_words(size, n)
        for size in (2, 3)
        for n in range(0, 9)
    )
    return bad == 0, f"alphabets 2,3 n<=8, {bad} mismatches"


def _square_free_test() -> tuple[bool, str]:
    # square and overlap tests vs all-windows scans, on joins of two factors of
    # an overlap-free binary word and a square-free ternary word
    rng = random.Random(SEED)
    t = thue_morse_prefix(257).text
    ternary = "".join("abc"[int(y) - int(x) + 1] for x, y in zip(t, t[1:]))

    def factor(s: str) -> str:
        i = rng.randrange(len(s))
        return s[i : i + rng.randint(0, 16)]

    words = [Word(a, factor(s) + factor(s)) for a, s in ((BINARY, t), (ABC, ternary)) for _ in range(40)]
    bad = sum(
        is_square_free(w) == oracle.brute_square_scan(w) or has_overlap(w) != oracle.brute_overlap_scan(w)
        for w in words
    )
    return bad == 0, f"{len(words)} words, {bad} mismatches"


def _codec_round_trip() -> tuple[bool, str]:
    # codec round-trip and uniqueness
    rng = random.Random(SEED)
    bad = 0
    for _ in range(200):
        source = Word(ABC, "".join(rng.choice("abc") for _ in range(rng.randint(1, 80))))
        image = delta_encode(source)
        decoded = delta_decode(image)
        preimages = oracle.delta_factorizations(image)
        if decoded != source or preimages != [source]:
            bad += 1
    return bad == 0, f"200 words, {bad} mismatches"


def _integral_dual_path() -> tuple[bool, str]:
    # integral model: integral_density refuses quadrature and closed form that disagree
    grid = list(product((0.5, 1.0, 2.0, 5.0), (0.5, 1.0, 2.0), ((0.0, 1.0), (0.0, 10.0), (1.0, 3.0))))
    bad = 0
    for k, tau, (a, b) in grid:
        try:
            integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))
        except ValueError:
            bad += 1
    return bad == 0, f"{len(grid)} grid points, {bad} mismatches"


def _symbol_access() -> tuple[bool, str]:
    # direct symbol access vs generated prefix
    text = infinite_prefix(20000).text
    bad = sum(1 for i in range(20000) if nth_symbol(i) != text[i])
    return bad == 0, f"20000 symbols, {bad} mismatches"


def _factor_complexity() -> tuple[bool, str]:
    # factor complexity of the infinite word: k+1 distinct factors
    prefix = infinite_prefix(610)
    bad = 0
    for k in range(1, 13):
        mine = distinct_factors(prefix, k)
        if len(mine) != k + 1 or set(mine) != oracle.brute_factor_set(prefix, k):
            bad += 1
    return bad == 0, f"k<=12, {bad} mismatches"


SUITES = (
    ("occurrence-count", _occurrence_count),
    ("scattered-palindromes", _scattered_palindromes),
    ("palindromic-factors", _palindromic_factors),
    ("square-free-enumeration", _square_free_enumeration),
    ("square-free-test", _square_free_test),
    ("codec-round-trip", _codec_round_trip),
    ("integral-dual-path", _integral_dual_path),
    ("symbol-access", _symbol_access),
    ("factor-complexity", _factor_complexity),
)
