"""The result records: frozen values, equal field by field within one class.

FibSeeds, IntegralParams, IntegralResult, PalindromeReport, BoundRow,
CatalanRecord and FuzzyWord each take their fields by position or keyword,
check them on construction, compare and hash by value, never equal a tuple
of their fields, print as ``Name(field=value, ...)`` and refuse assignment.
dataclasses.fields, asdict and replace accept them.
"""

import dataclasses
import math
import operator
from fractions import Fraction

import pytest

from fibword.catalan import CatalanRecord
from fibword.density import IntegralParams, IntegralResult
from fibword.fibonacci import FibSeeds
from fibword.fuzzy import FuzzyWord
from fibword.palindromes import PalindromeReport
from fibword.squarefree import BoundRow
from fibword.words import AB, BINARY, Word

_ONE, _ZERO = Word(BINARY, "1"), Word(BINARY, "0")
_ABA = Word(AB, "aba")
_PALS = (Word(AB, "a"), Word(AB, "aba"), Word(AB, "b"))

# (class, field values, the field to change and its new value, the exact repr)
_CASES = [
    (FibSeeds, {"first": _ONE, "second": _ZERO}, ("second", Word(BINARY, "10")),
     "FibSeeds(first=Word('1', alphabet='01'), second=Word('0', alphabet='01'))"),
    (IntegralParams, {"a": 0.0, "b": math.inf, "k": 1.0, "tau": 1.0}, ("tau", 2.0),
     "IntegralParams(a=0.0, b=inf, k=1.0, tau=1.0)"),
    (IntegralResult, {"quadrature": 0.5, "closed_form": 0.5, "quadrature_error": 1e-16},
     ("closed_form", 0.25), "IntegralResult(quadrature=0.5, closed_form=0.5, quadrature_error=1e-16)"),
    (PalindromeReport, {"word": _ABA, "pal_factors": _PALS, "p_count": 3, "sp_count": 4},
     ("sp_count", None),
     "PalindromeReport(word=Word('aba', alphabet='ab'), pal_factors=(Word('a', alphabet='ab'), "
     "Word('aba', alphabet='ab'), Word('b', alphabet='ab')), p_count=3, sp_count=4)"),
    (BoundRow, {"n": 3, "s_n": 12, "lower": 6.5, "upper": 15.75, "lower_holds": True,
                "upper_holds": True}, ("upper_holds", False),
     "BoundRow(n=3, s_n=12, lower=6.5, upper=15.75, lower_holds=True, upper_holds=True)"),
    (CatalanRecord, {"n": 2, "c_n": 2, "table_expr": 1, "g_n": Fraction(7, 4)}, ("g_n", Fraction(2)),
     "CatalanRecord(n=2, c_n=2, table_expr=1, g_n=Fraction(7, 4))"),
    (FuzzyWord, {"word": Word(AB, "ab"), "memberships": (0.8, 0.5)}, ("memberships", (0.8, 0.25)),
     "FuzzyWord(word=Word('ab', alphabet='ab'), memberships=(0.8, 0.5))"),
]
_IDS = [case[0].__name__ for case in _CASES]


@pytest.mark.parametrize("cls, fields, change, text", _CASES, ids=_IDS)
def test_record_is_a_frozen_value(cls, fields, change, text):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert not positional != keyword
    for name, value in fields.items():
        assert getattr(keyword, name) == value
    name, value = change
    changed = cls(**{**fields, name: value})
    assert changed != keyword
    assert not changed == keyword
    assert keyword != tuple(fields.values())
    assert tuple(fields.values()) != keyword
    assert keyword not in {tuple(fields.values())}
    assert repr(keyword) == text
    with pytest.raises(AttributeError):
        setattr(keyword, name, value)
    with pytest.raises(AttributeError):
        setattr(keyword, "extra", 1)
    assert keyword == cls(**fields)  # the failed assignments left it as it was


def test_records_of_different_classes_are_unequal():
    params, result = IntegralParams(0.5, 0.5, 1.0, 1.0), IntegralResult(0.5, 0.5, 1.0)
    assert params != result
    assert result != params
    assert not params == result


@pytest.mark.parametrize("cls, fields, change, text", _CASES, ids=_IDS)
def test_dataclasses_functions_accept_records(cls, fields, change, text):
    record = cls(**fields)
    assert dataclasses.is_dataclass(record)
    assert [f.name for f in dataclasses.fields(cls)] == list(fields)
    assert all(map(operator.is_, dataclasses.fields(cls), dataclasses.fields(record)))  # built once per class
    assert dataclasses.asdict(record) == fields
    name, value = change
    changed = dataclasses.replace(record, **{name: value})
    assert type(changed) is cls
    assert changed == cls(**{**fields, name: value})
    assert dataclasses.replace(record) == record


def test_dataclasses_replace_runs_the_checks_and_keeps_defaults():
    with pytest.raises(ValueError, match="^k and tau must be positive$"):
        dataclasses.replace(IntegralParams(0, 1, 1, 1), k=-1)
    with pytest.raises(ValueError, match=r"^gamma\(200\) overflows a float$"):
        dataclasses.replace(IntegralParams(0, 1, 1, 1), k=200)
    [*_, sp_field] = dataclasses.fields(PalindromeReport)
    assert (sp_field.name, sp_field.default) == ("sp_count", None)


def test_palindrome_report_sp_count_defaults_to_none():
    report = PalindromeReport(_ABA, _PALS, 3)
    assert report.sp_count is None
    assert report == PalindromeReport(word=_ABA, pal_factors=_PALS, p_count=3, sp_count=None)
    assert report != PalindromeReport(_ABA, _PALS, 3, 4)


def test_record_constructor_refuses_missing_and_unknown_fields():
    with pytest.raises(TypeError):
        FibSeeds(_ONE)
    with pytest.raises(TypeError):
        FibSeeds(_ONE, _ZERO, _ONE)
    with pytest.raises(TypeError):
        FibSeeds(first=_ONE, third=_ZERO)
    with pytest.raises(TypeError):
        FibSeeds(_ONE, first=_ZERO)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FibSeeds(Word(BINARY, ""), _ZERO), "seed words must be nonempty"),
        (lambda: FibSeeds(_ONE, Word(BINARY, "")), "seed words must be nonempty"),
        (lambda: FibSeeds(_ONE, Word(AB, "a")), "seed words must share an alphabet"),
        (lambda: IntegralParams(0, 1, 0, 1), "k and tau must be positive"),
        (lambda: IntegralParams(0, 1, 1, -1), "k and tau must be positive"),
        (lambda: IntegralParams(0, 1, math.inf, 1), "k must be finite"),
        (lambda: IntegralParams(0, 1, 200, 1), r"gamma\(200\) overflows a float"),
        (lambda: IntegralParams(5.0, 5.0, 171.7, 1.0), r"gamma\(171\.7\) overflows a float"),
        (lambda: IntegralParams(0.0, 0.0, 5e-324, 1.0), r"gamma\(5e-324\) overflows a float"),
        (lambda: IntegralParams(-1, 1, 1, 1), "a must be finite and nonnegative"),
        (lambda: IntegralParams(math.inf, 1, 1, 1), "a must be finite and nonnegative"),
        (lambda: IntegralParams(a=0, b=math.nan, k=1, tau=1), r"b must be nonnegative \(or \+inf\)"),
        (lambda: IntegralParams(0, -1, 1, 1), r"b must be nonnegative \(or \+inf\)"),
        (lambda: FuzzyWord(Word(AB, "ab"), (0.5,)), "one membership degree per symbol is required"),
        (lambda: FuzzyWord(word=Word(AB, "ab"), memberships=(0.5, 1.5)),
         r"membership degrees must lie in \[0, 1\]"),
    ],
)
def test_record_checks_its_fields(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_fuzzy_word_length_is_its_word_length():
    assert len(FuzzyWord(Word(AB, "aba"), (1.0, 0.5, 1.0))) == 3
