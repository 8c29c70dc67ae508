"""Catalan numbers and the exact Catalan-indexed quantities."""

import math
from fractions import Fraction

import pytest

from fibword.catalan import (
    catalan,
    catalan_fib_ratio,
    catalan_table,
    fib_word_at_catalan,
    limit_function_g,
    table_expr,
)
from fibword.cli import main
from fibword.fibonacci import PHI, fib
from fibword.words import GUARDS


def test_catalan_values():
    assert catalan(0) == 1
    assert [catalan(n) for n in range(1, 5)] == [1, 2, 5, 14]
    assert catalan(10) == 16796
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_satisfies_segner_recurrence():
    for n in range(0, 16):
        convolution = sum(catalan(i) * catalan(n - i) for i in range(n + 1))
        assert catalan(n + 1) == convolution


def test_table_expr_values():
    assert table_expr(1) == 0
    assert table_expr(3) == 4
    assert table_expr(4) == 13
    with pytest.raises(ValueError):
        table_expr(0)


def test_limit_function_g_values():
    assert limit_function_g(2) == Fraction(3, 2)
    assert limit_function_g(4) == Fraction(15, 14)
    with pytest.raises(ValueError):
        limit_function_g(0)
    # its own guard, not catalan_table's 200 rows: one value at 201 is cheap
    assert limit_function_g(201) - 1 == Fraction(202, math.comb(402, 201))
    limit = GUARDS["limit_function_g"][0]
    with pytest.raises(ValueError, match=f"^limit_function_g is limited to {limit} for the index n "):
        limit_function_g(limit + 1)


def test_limit_function_g_identity_and_monotonicity():
    prev = None
    for n in range(2, 101):
        g = limit_function_g(n)
        assert g - 1 == Fraction(n + 1, math.comb(2 * n, n))
        if prev is not None:
            assert g < prev
        prev = g


def test_limit_function_g_tends_to_one():
    assert limit_function_g(50) - 1 < Fraction(1, 10**12)
    assert limit_function_g(200) - 1 < Fraction(1, 10**50)


def test_catalan_fib_ratio_values():
    assert catalan_fib_ratio(3) == fib(6) / fib(5) == 1.6
    assert abs(catalan_fib_ratio(4) - 610 / 377) < 1e-15
    assert abs(catalan_fib_ratio(6) - PHI) < 1e-9


def test_catalan_fib_ratio_bracket():
    for n in range(4, 13):
        assert 1.6 < catalan_fib_ratio(n) < 1.62


def test_catalan_fib_ratio_guards():
    with pytest.raises(ValueError):
        catalan_fib_ratio(2)
    with pytest.raises(ValueError):
        catalan_fib_ratio(13)


def test_fib_word_at_catalan():
    assert fib_word_at_catalan(3).text == "01001"
    assert len(fib_word_at_catalan(4)) == fib(14) == 377
    with pytest.raises(ValueError):
        fib_word_at_catalan(2)
    with pytest.raises(ValueError):
        fib_word_at_catalan(5)  # C_5 = 42 is past its own guard, below the generation guard's F_43


def test_catalan_record_invariants():
    for n in range(1, 20):
        r = catalan_table(n)[-1]
        assert r.c_n == math.comb(2 * n, n) // (n + 1)
        assert r.table_expr == r.c_n - 1
        assert r.g_n == 1 + Fraction(n + 1, math.comb(2 * n, n))


def test_records_to_csv_shape(capsys):
    assert main(["catalan", "--n-max", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,c_n,table_expr,g_n"
    assert lines[1] == "1,1,0,2"
    assert lines[4] == "4,14,13,15/14"
