"""Every differential suite of ``fibword verify``, one test each, and a suite that sees a mismatch."""

import pytest

from fibword import verify
from fibword.cli import main
from fibword.palindromes import sp_count
from fibword.verify import SUITES


@pytest.mark.parametrize("suite", [suite for _, suite in SUITES], ids=[name for name, _ in SUITES])
def test_suite_is_ok(suite):
    ok, detail = suite()
    assert ok, detail


def test_tally_fails_on_a_single_mismatch():
    assert verify._tally("{} cases", lambda: iter([False, True, False])) == (False, "3 cases, 1 mismatches")
    assert verify._tally("{} cases", lambda: iter([False, False])) == (True, "2 cases, 0 mismatches")


def test_a_routine_wrong_on_one_word_fails_its_suite_and_verify(monkeypatch, capsys):
    # sp_count as verify reads it, off by one on the word 0101 alone
    monkeypatch.setattr(verify, "sp_count", lambda w: sp_count(w) + (w.text == "0101"))
    ok, detail = dict(SUITES)["scattered-palindromes"]()
    assert (ok, detail) == (False, "2046 words, 1 mismatches")
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "verify scattered-palindromes: FAIL (2046 words, 1 mismatches)\n" in out
    assert out.endswith("verify: 8/9 suites ok\n")
