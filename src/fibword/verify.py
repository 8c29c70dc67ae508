"""Differential verify suites: each counting routine against fibword.oracle.

``_verify_suites`` runs every suite and returns (name, ok, detail) triples;
``fibword verify`` prints them and exits 1 if any suite failed.
"""

from __future__ import annotations

import random

from . import oracle
from .density import IntegralParams, count_occurrences, integral_density
from .fibonacci import infinite_prefix, nth_symbol
from .palindromes import _pal_factor_strings_scan, _Eertree, sp_count
from .squarefree import delta_decode, delta_encode, enumerate_square_free
from .words import AB, ABC, BINARY, Word, distinct_factors


def _verify_suites() -> list[tuple[str, bool, str]]:
    from itertools import product

    results = []
    rng = random.Random(20240517)

    # occurrence counting vs all-windows scan
    bad = 0
    total = 0
    for tlen in range(1, 9):
        for tb in product("01", repeat=tlen):
            text = Word(BINARY, "".join(tb))
            for plen in range(1, min(3, tlen) + 1):
                for pb in product("01", repeat=plen):
                    pattern = Word(BINARY, "".join(pb))
                    total += 1
                    if count_occurrences(pattern, text) != oracle.brute_count(pattern, text):
                        bad += 1
    for _ in range(300):
        text = Word(BINARY, "".join(rng.choice("01") for _ in range(rng.randint(1, 64))))
        pattern = Word(BINARY, "".join(rng.choice("01") for _ in range(rng.randint(1, 8))))
        total += 1
        if count_occurrences(pattern, text) != oracle.brute_count(pattern, text):
            bad += 1
    results.append(("occurrence-count", bad == 0, f"{total} cases, {bad} mismatches"))

    # scattered-palindrome DP vs subset enumeration
    bad = 0
    total = 0
    for length in range(1, 11):
        for bits in product("01", repeat=length):
            w = Word(BINARY, "".join(bits))
            total += 1
            if sp_count(w) != oracle.brute_sp_count(w):
                bad += 1
    results.append(("scattered-palindromes", bad == 0, f"{total} words, {bad} mismatches"))

    # palindromic factor sets: scan vs eertree vs brute filter
    bad = 0
    total = 0
    for _ in range(150):
        n = rng.randint(0, 120)
        text = "".join(rng.choice("ab") for _ in range(n))
        scan = _pal_factor_strings_scan(text)
        tree = _Eertree(text).factor_strings() if text else set()
        brute = {x.text for x in oracle.brute_pal_factor_set(Word(AB, text))}
        total += 1
        if scan != tree or scan != brute:
            bad += 1
    results.append(("palindromic-factors", bad == 0, f"{total} words, {bad} mismatches"))

    # square-free enumeration vs brute backtracking
    bad = 0
    for size in (2, 3):
        for n in range(0, 9):
            mine = [w.text for w in enumerate_square_free(size, n)]
            brute = [w.text for w in oracle.brute_square_free_words(size, n)]
            if mine != brute:
                bad += 1
    results.append(("square-free-enumeration", bad == 0, f"alphabets 2,3 n<=8, {bad} mismatches"))

    # codec round-trip and uniqueness
    bad = 0
    for _ in range(200):
        source = Word(ABC, "".join(rng.choice("abc") for _ in range(rng.randint(1, 80))))
        image = delta_encode(source)
        decoded = delta_decode(image)
        preimages = oracle.delta_factorizations(image)
        if decoded != source or preimages != [source]:
            bad += 1
    results.append(("codec-round-trip", bad == 0, f"200 words, {bad} mismatches"))

    # integral model: quadrature vs incomplete-gamma closed form
    bad = 0
    total = 0
    for k in (0.5, 1.0, 2.0, 5.0):
        for tau in (0.5, 1.0, 2.0):
            for a, b in ((0.0, 1.0), (0.0, 10.0), (1.0, 3.0)):
                r = integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))
                total += 1
                scale = max(abs(r.closed_form), 1e-300)
                if abs(r.quadrature - r.closed_form) / scale > 1e-9:
                    bad += 1
    results.append(("integral-dual-path", bad == 0, f"{total} grid points, {bad} mismatches"))

    # direct symbol access vs generated prefix
    text = infinite_prefix(20000).text
    bad = sum(1 for i in range(20000) if nth_symbol(i) != text[i])
    results.append(("symbol-access", bad == 0, f"20000 symbols, {bad} mismatches"))

    # factor complexity of the infinite word: k+1 distinct factors
    prefix = infinite_prefix(610)
    bad = 0
    for k in range(1, 13):
        mine = distinct_factors(prefix, k)
        brute = oracle.brute_factor_set(prefix, k)
        if len(mine) != k + 1 or set(mine) != brute:
            bad += 1
    results.append(("factor-complexity", bad == 0, f"k<=12, {bad} mismatches"))

    return results
