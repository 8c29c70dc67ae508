"""Catalan numbers and Catalan-indexed Fibonacci quantities.

Everything here is exact integer/rational arithmetic; the gamma-function
re-expressions of these quantities are algebraically identical to the
integer forms used, so they are not evaluated separately.  Note the two
limits exposed side by side: the consecutive-Fibonacci ratio at Catalan
indices converges to phi (as any consecutive ratio does), while the
normalized form g(n) converges to 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fibonacci import fib, fib_word
from .words import Word, _admit, _Record


def catalan(n: int) -> int:
    """Exact Catalan number binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def table_expr(n: int) -> int:
    """The tabulated expression binom(2n, n)/(n+1) - 1, exactly.

    Evaluates to 0, 1, 4, 13, ... for n = 1, 2, 3, 4.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return catalan(n) - 1


def limit_function_g(n: int) -> Fraction:
    """g(n) = ((n+1)*(n!)**2 + (2n)!) / (2n)!, exactly.

    Equals 1 + (n+1)/binom(2n, n), the form evaluated, and decreases to 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _admit("limit_function_g", n)
    return 1 + Fraction(n + 1, math.comb(2 * n, n))


class CatalanRecord(_Record):
    """One exact row: n, C_n, C_n - 1, and g(n)."""

    n: int
    c_n: int
    table_expr: int
    g_n: Fraction


def catalan_table(n_max: int) -> list[CatalanRecord]:
    """Records for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    _admit("catalan_table", n_max)
    # C_n - 1 is table_expr(n), without computing C_n again
    return [CatalanRecord(n, c := catalan(n), c - 1, limit_function_g(n)) for n in range(1, n_max + 1)]


def fib_word_at_catalan(n: int) -> Word:
    """The Fibonacci word whose index is the n-th Catalan number.

    Defined for n >= 3; refused past its own guard on C_n (30), below what
    the "generation" guard admits (C_5 = 42: |w_42| = F_42 < 2**29).
    """
    if n < 3:
        raise ValueError("defined for n >= 3")
    _admit("fib_word_at_catalan", c := catalan(n))
    return fib_word(c)


def catalan_fib_ratio(n: int) -> float:
    """F(C_n + 1) / F(C_n): the consecutive-Fibonacci ratio evaluated at a
    Catalan index.  Converges to phi, like every consecutive ratio."""
    if not 3 <= n <= 12:
        raise ValueError("n must be between 3 and 12 (index growth)")
    c = catalan(n)
    return fib(c + 1) / fib(c)
