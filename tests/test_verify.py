"""Every differential suite of ``fibword verify``, one test each, a suite that sees a mismatch, and
the runner that shares the suites between the CLI process and one forked child."""

import errno
import os
import signal
import time

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


def test_the_occurrence_suite_pairs_a_text_only_with_patterns_no_longer_than_it():
    # every binary text of length 1-8 with every binary pattern of length 1 to min(3, |text|), then 300 drawn pairs
    exhaustive = sum(2**t * sum(2**p for p in range(1, min(3, t) + 1)) for t in range(1, 9))
    assert dict(SUITES)["occurrence-count"]() == (True, f"{exhaustive + 300} cases, 0 mismatches")


def test_a_routine_wrong_on_one_word_fails_its_suite_and_verify(monkeypatch, capsys):
    # sp_count as verify reads it, off by one on the word 0101 alone
    monkeypatch.setattr(verify, "sp_count", lambda w: sp_count(w) + (w.text == "0101"))
    ok, detail = dict(SUITES)["scattered-palindromes"]()
    assert (ok, detail) == (False, "2046 words, 1 mismatches")
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "verify scattered-palindromes: FAIL (2046 words, 1 mismatches)\n" in out
    assert out.endswith("verify: 8/9 suites ok\n")


def test_an_integral_model_that_refuses_every_input_fails_its_suite(monkeypatch):
    def refuse(params):
        raise ValueError("quadrature and closed form disagree")
    monkeypatch.setattr(verify, "integral_density", refuse)
    assert dict(SUITES)["integral-dual-path"]() == (False, "36 grid points, 36 mismatches")


def _stub(ok, drawn, parent_only=False):
    """A suite that records which process ran it in the file drawn; it sleeps first, so the other
    process draws the next one.  With parent_only, a forked child that draws it dies there."""
    parent = os.getpid()

    def suite():
        time.sleep(0.05)
        with open(drawn, "a") as f:
            f.write(f"{os.getpid()}\n")
        if parent_only and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return ok, "stub"
    return suite


def test_results_print_in_suites_order_whichever_process_ran_them(monkeypatch, capsys, tmp_path):
    drawn = tmp_path / "drawn"
    stubs = [(f"s{i}", _stub(ok, drawn)) for i, ok in enumerate([True, False, True, False])]
    monkeypatch.setattr(verify, "SUITES", stubs)
    assert main(["verify"]) == 1
    assert capsys.readouterr().out == (
        "verify s0: ok (stub)\nverify s1: FAIL (stub)\nverify s2: ok (stub)\nverify s3: FAIL (stub)\n"
        "verify: 2/4 suites ok\n")
    pids = drawn.read_text().split()
    assert len(pids) == 4 and str(os.getpid()) in pids and len(set(pids)) == 2, "each process ran a share once"


def test_a_suite_whose_child_died_runs_in_the_parent(monkeypatch, capsys, tmp_path):
    drawn = tmp_path / "drawn"
    monkeypatch.setattr(verify, "SUITES", [(f"s{i}", _stub(True, drawn, parent_only=True)) for i in range(4)])
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.endswith("verify s3: ok (stub)\nverify: 4/4 suites ok\n")
    pids = drawn.read_text().split()
    assert pids.count(str(os.getpid())) == 4 and len(pids) == 5, "the child died on the one it drew"


def test_a_suite_out_of_memory_exits_3_whichever_process_drew_it(monkeypatch, capsys, tmp_path):
    def exhausted():
        raise MemoryError

    drawn = tmp_path / "drawn"
    for at in range(3):
        stubs = [(f"s{i}", exhausted if i == at else _stub(True, drawn)) for i in range(3)]
        monkeypatch.setattr(verify, "SUITES", stubs)
        assert main(["verify"]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")


def test_no_child_is_left_after_verify_returns_or_raises(monkeypatch, capsys):
    assert main(["verify"]) == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def broken():
        raise RuntimeError("broken suite")

    monkeypatch.setattr(verify, "SUITES", [("broken", broken)] * 3)
    with pytest.raises(RuntimeError, match="broken suite"):
        main(["verify"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.parametrize("fork", [None, _no_fork], ids=["absent", "failing"])
def test_without_fork_verify_prints_the_same_bytes(monkeypatch, capsys, fork):
    assert main(["verify"]) == 0
    forked = capsys.readouterr().out
    if fork is None:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == forked
