"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -v -s or
in failure output) and then asserts.

Known red: criterion 4 pins the worked palindromic-factor count
P("abab") = 6, but direct enumeration of the factors of abab gives
{a, b, aba, bab}, so P("abab") = 4 (aa and bb occur only as scattered
subsequences).  The claim P = 6 also contradicts criterion 5's inequality
P(w) <= |w| on the same corpus (6 > |abab| = 4).  The assertion is kept
as stated and fails; everything else in the suite passes.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import product

from fibword import oracle
from fibword.catalan import catalan, catalan_fib_ratio, limit_function_g
from fibword.cli import main
from fibword.density import (
    IntegralParams,
    density,
    exp_sum_approx,
    integral_density,
)
from fibword.fibonacci import (
    PHI,
    fib,
    fib_binet,
    fib_word,
    golden_ratio_bounds,
    infinite_prefix,
    k_fib_ratio,
)
from fibword.fuzzy import fuzzy_fib_word, word_membership
from fibword.palindromes import (
    pal_density_table,
    pal_factors,
    sp_count,
    sp_delta,
)
from fibword.squarefree import brandenburg_table, delta_decode, delta_encode, square_free_count
from fibword.words import AB, ABC, BINARY, distinct_factors


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_c01_reference_run_reproduction(capsys):
    start = time.perf_counter()
    code = main(["reproduce-3-2", "--format", "json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and payload["ones"] == 17711
        and payload["zeros"] == 10946
        and payload["length"] == 28657
        and abs(payload["ratio"] - 0.6180339887) < 1e-10
        and elapsed < 1.0
    )
    assert report(1, ok, f"ones/zeros/length + ratio, {elapsed:.3f}s")


def test_c02_golden_ratio_limit():
    start = time.perf_counter()
    lo, hi = golden_ratio_bounds()
    lo1, hi1 = lo - 1, hi - 1  # bracket of phi - 1, width 1e-40
    tol = Fraction(1, 10**12)
    ok = True
    for n in range(40, 91):
        p, q = fib(n), fib(n + 1)
        ratio = Fraction(p, q)
        if not (lo1 - tol < ratio < hi1 + tol):
            ok = False
        above = (2 * p + q) ** 2 - 5 * q * q > 0  # sign of ratio - (phi-1)
        if above != (n % 2 == 1):
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(2, ok, f"|F(n)/F(n+1) - (phi-1)| < 1e-12 and parity flip, 40..90, {elapsed:.3f}s")


def test_c03_word_identities():
    listing = ["1", "0", "01", "010", "01001", "01001010"]
    ok = all(fib_word(n).text == listing[n - 1] for n in range(1, 7))
    f7 = fib_word(7)
    ok = ok and f7 == fib_word(6) + fib_word(5) and len(f7) == 13
    displayed = "0100101001001010010100100101001001"
    ok = ok and infinite_prefix(34).text == displayed
    assert report(3, ok, "f_1..f_6 listing, f_7 = f_6·f_5 (13 symbols), 34-symbol prefix")


def test_c04_worked_palindrome_counts():
    p_abaa = pal_factors(AB.word("abaa")).p_count
    sp_abaa = sp_count(AB.word("abaa"))
    p_abab = pal_factors(AB.word("abab")).p_count
    sp_abab = sp_count(AB.word("abab"))
    ok = p_abaa == 4 and sp_abaa == 5 and p_abab == 6 and sp_abab == 6
    report(4, ok, f"worked counts: P(abaa)={p_abaa}, SP(abaa)={sp_abaa}, "
                  f"P(abab)={p_abab}, SP(abab)={sp_abab}")
    assert p_abaa == 4
    assert sp_abaa == 5
    assert sp_abab == 6
    # Not attainable: the palindromic factors of abab are {a, b, aba, bab}.
    # aa/bb are subsequences, and P = 6 would violate P(w) <= |w| = 4.
    assert p_abab == 6, "P('abab') is 4 by direct enumeration; 6 counts subsequences"


def test_c04_sp_dp_matches_brute_force_to_14():
    start = time.perf_counter()
    checked = 0
    brute = oracle.brute_sp_counts("ab", 14)  # subset enumeration along the trie of words
    for n in range(1, 15):
        for bits in product("ab", repeat=n):
            s = "".join(bits)
            assert sp_count(AB.word(s)) == brute[s], s
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 2**15 - 2 and elapsed < 60.0
    assert report(4, ok, f"DP == brute enumeration on all {checked} binary words <= 14, {elapsed:.1f}s")


def test_c05_inequality_suite():
    sp_by_text = {}
    for n in range(0, 14):
        for bits in product("ab", repeat=n):
            s = "".join(bits)
            sp_by_text[s] = sp_count(AB.word(s))
    ok = True
    for n in range(1, 13):
        for bits in product("ab", repeat=n):
            s = "".join(bits)
            if not pal_factors(AB.word(s)).p_count <= n <= sp_by_text[s]:
                ok = False
            bound = fib(n + 1)
            for c in "ab":
                if sp_by_text[s + c] - sp_by_text[s] > bound:
                    ok = False
    # the growth bound also covers the empty word
    ok = ok and sp_delta(AB.word(""), "a") <= fib(1)
    assert report(5, ok, "P(w) <= |w| <= SP(w) and sp_delta <= F(|w|+1), exhaustive <= 12")


def test_c06_sturmian_structure():
    prefix = infinite_prefix(610)
    ok = all(len(distinct_factors(prefix, k)) == k + 1 for k in range(1, 16))
    ok = ok and density(BINARY.word("11"), 10**4).value == 0
    ok = ok and density(BINARY.word("000"), 10**4).value == 0
    zero_density = density(BINARY.word("0"), 10946).value_real
    ok = ok and abs(zero_density - (PHI - 1)) < 0.001
    # the palindrome-density table is regression-pinned against the oracle
    table = pal_density_table(1000, 3)
    counts = {w.text: int(s.value * s.n) for w, s in table.items()}
    ok = ok and counts == {"000": 0, "010": 381, "101": 145, "111": 0}
    big = infinite_prefix(1000)
    for w, s in table.items():
        if int(s.value * s.n) != oracle.brute_count(w, big):
            ok = False
    two = {w.text: int(s.value * s.n) for w, s in pal_density_table(13, 2).items()}
    ok = ok and two == {"00": 3, "11": 0}
    assert report(6, ok, "complexity k+1 (k<=15), no 11/000, letter-0 density, pinned tables")


def test_c07_square_free():
    ok = True
    for n in range(1, 13):
        mine = square_free_count(3, n)
        brute = len(oracle.brute_square_free_words(3, n))
        if mine != brute:
            ok = False
    rng = random.Random(20250101)
    for _ in range(1000):
        # images are at most 3 symbols per source symbol, so <= 198 here
        source = ABC.word("".join(rng.choice("abc") for _ in range(rng.randint(1, 66))))
        image = delta_encode(source)
        if len(image) > 200 or delta_decode(image) != source:
            ok = False
        if delta_encode(delta_decode(image)) != image:
            ok = False
    rows = brandenburg_table(12)
    ok = ok and [r.lower_holds for r in rows] == [False, False] + [True] * 10
    ok = ok and [r.upper_holds for r in rows] == [True] * 4 + [False] * 3 + [True] * 5
    assert report(7, ok, "counts 1..12 vs oracle, 1000 codec round-trips, pinned bound flags")


def test_c08_integral_model():
    ok = True
    for k in (0.5, 1.0, 2.0, 5.0):
        for tau in (0.5, 1.0, 2.0):
            for a, b in ((0.0, 1.0), (0.0, 10.0), (1.0, 3.0)):
                r = integral_density(IntegralParams(a=a, b=b, k=k, tau=tau))
                if abs(r.quadrature - r.closed_form) > 1e-9 * abs(r.closed_form):
                    ok = False
    r = integral_density(IntegralParams(a=0.0, b=math.inf, k=1.0, tau=1.0))
    ok = ok and abs(r.quadrature - 0.5) < 1e-12 and abs(r.closed_form - 0.5) < 1e-12
    assert report(8, ok, "36-point grid <= 1e-9 relative; analytic case = 0.5")


def test_c09_binet_and_k_fibonacci():
    worst = max(abs(fib_binet(n) - fib(n)) for n in range(1, 71))
    ok = worst < 0.5
    ok = ok and abs(k_fib_ratio(2, 40) - (1 + math.sqrt(2))) < 1e-9
    assert report(9, ok, f"Binet worst |err| = {worst:.4f} < 0.5 (n <= 70); k=2 ratio -> 1+sqrt(2)")


def test_c10_exact_catalan_values():
    ok = [catalan(n) for n in range(1, 5)] == [1, 2, 5, 14]
    ok = ok and limit_function_g(2) == Fraction(3, 2)
    ok = ok and limit_function_g(4) == Fraction(15, 14)
    tol = Fraction(1, 10**12)
    for n in (50, 75, 100, 150, 200):
        if abs(limit_function_g(n) - 1) >= tol:
            ok = False
    for n in range(6, 13):
        if abs(catalan_fib_ratio(n) - PHI) >= 1e-9:
            ok = False
    assert report(10, ok, "C_1..C_4, g(2)=3/2, g(4)=15/14, g -> 1, ratio -> phi for n >= 6")


def test_c11_exponential_sum_vanishes():
    value = exp_sum_approx(30)
    ok = value < 1e-6
    assert report(11, ok, f"exp-sum(30) = {value:.3e} < 1e-6 (tends to 0, not phi-1)")


def test_c12_fuzzy_word():
    fw = fuzzy_fib_word(4, 0.8, 0.5)
    ok = fw.word.text == "abaab" and word_membership(fw) == 0.5
    assert report(12, ok, "fuzzy word abaab with min-membership 0.5")
