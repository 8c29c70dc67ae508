"""The command-line front end: outputs, formats, determinism, exit codes."""

import argparse
import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fibword.cli as cli
from fibword.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_word(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "6")
    assert code == 0
    assert out == "01001010\n"


def test_generate_prefix(capsys):
    code, out, _ = run_cli(capsys, "generate", "--length", "34")
    assert code == 0
    assert out == "0100101001001010010100100101001001\n"


def test_generate_with_seeds(capsys):
    code, out, _ = run_cli(capsys, "generate", "--n", "4", "--seeds", "1,10")
    assert code == 0
    assert out == "10110\n"  # 1, 10, 101, 10110


def test_generate_usage_errors(capsys):
    code, _, err = run_cli(capsys, "generate")
    assert code == 2
    assert "usage error" in err
    code, _, err = run_cli(capsys, "generate", "--n", "3", "--length", "5")
    assert code == 2


def test_generate_guard_error_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "generate", "--n", "0")
    assert code == 3
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_generate_far_past_the_guard_is_exit_3(capsys):
    code, out, err = run_cli(capsys, "generate", "--n", "1000000000")
    assert code == 3
    assert out == ""
    assert err == (  # |w_(10**9)| = F_(10**9), stated by its digit count
        "error: generation is limited to 536870912 symbols (1.55-1.69 GB and 4-14 s at the limit); "
        "this input needs a length of 208987640 digits\n"
    )


def test_density_json_matches_contract(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--pattern", "11", "--prefix", "1000", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"count": 0, "n": 1000, "density": 0}


def test_density_text(capsys):
    code, out, _ = run_cli(capsys, "density", "--pattern", "0", "--prefix", "8")
    assert code == 0
    assert "count: 5" in out
    assert "density: 0.625" in out


def test_density_integral_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "density",
        "--a", "0", "--b", "inf", "--k", "1", "--tau", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["quadrature"] - 0.5) < 1e-12
    assert abs(payload["closed_form"] - 0.5) < 1e-12
    # once refused: x ** 69 overflowed, and the closed form's tails cancelled (to a refusal or 0.0)
    for flags, truth in (
        (["--a", "0", "--b", "inf", "--k", "70", "--tau", "1"], math.gamma(70) / 2**70),
        (["--a", "2", "--b", "inf", "--k", "1", "--tau", "0.1"], math.exp(-22) / 11),
        (["--a", "3", "--b", "6", "--k", "1", "--tau", "0.05"], (math.exp(-63) - math.exp(-126)) / 21),
    ):
        code, out, _ = run_cli(capsys, "density", *flags, "--format", "json")
        assert code == 0, flags
        payload = json.loads(out)
        for route in ("quadrature", "closed_form"):
            assert abs(payload[route] - truth) <= 1e-12 * truth, (flags, route)


def test_density_flag_mixing_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "density", "--pattern", "0", "--prefix", "8", "--k", "1")
    assert code == 2


def test_density_bad_pattern_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "density", "--pattern", "ab", "--prefix", "10")
    assert code == 3


def test_density_zero_prefix_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "density", "--pattern", "0", "--prefix", "0")
    assert code == 3
    assert err.startswith("error:")


def test_density_infinite_k_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "density", "--a", "0", "--b", "1", "--k", "inf", "--tau", "1"
    )
    assert code == 3
    assert out == ""
    assert err == "error: k must be finite\n"


def test_density_routes_that_disagree_are_exit_3():
    cases = [
        (["0", "1", "--k", "1e-300", "--tau", "1"], "706.316", "closed form 1e+300"),
        # 1/tau overflows to inf, so the closed form reads inf * 0 = nan
        (["0", "1", "--k", "1", "--tau", "1e-320", "--format", "json"], "0.0,", "closed form nan, relative gap nan"),
        # a node's term of the quadrature passes the largest float
        (["100", "200", "--k", "171.6", "--tau", "inf"], "inf,", "closed form 1.5564222373519663e+308"),
    ]
    for (a, b, *tail), quadrature, closed in cases:
        # A subprocess, so that a warning printed by the integrator would show on stderr.
        proc = subprocess.run(
            [sys.executable, "-m", "fibword.cli", "density", "--a", a, "--b", b, *tail],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, tail
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: integral routes disagree: quadrature {quadrature}")
        assert closed in proc.stderr
        assert proc.stderr.endswith(" > 1e-09\n")
        assert proc.stderr.count("\n") == 1


def test_density_level_estimate_past_the_largest_float(capsys):
    # Level 0 of the quadrature sums past the largest float, halved or not; level 1 does not.
    code, out, err = run_cli(capsys, "density", "--a", "147.94", "--b", "193.26", "--k", "171.6", "--tau", "inf")
    assert (code, err) == (0, "")
    assert out.startswith("quadrature: 1.45273005709")
    assert out.count("\n") == 3


@pytest.mark.parametrize(
    "k, tau, b, message",
    [
        ("200", "1", "1", "error: gamma(200.0) overflows a float\n"),
        # no message: admitted, although the integrand's x ** 69.0 once overflowed a float
        ("70", "1", "inf", ""),
    ],
)
def test_density_float_overflow_is_exit_3(k, tau, b, message):
    argv = ["density", "--a", "0", "--b", b, "--k", k, "--tau", tau]
    proc = subprocess.run(
        [sys.executable, "-m", "fibword.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == (3 if message else 0)
    assert (proc.stdout == "") == bool(message)
    assert proc.stderr == message
    assert "Traceback" not in proc.stderr


def test_curve_csv_header(capsys):
    code, out, _ = run_cli(capsys, "curve", "--n-max", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "1,1.0"
    assert len(lines) == 6


def test_curve_json_carries_exact_fractions(capsys):
    code, out, _ = run_cli(capsys, "curve", "--n-max", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[9] == {
        "n": 10,
        "numerator": 55,
        "denominator": 89,
        "value": 55 / 89,
    }


# JSON scalars, with text biased to what JSON escapes: quotes, backslashes, control and non-ASCII
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'), st.characters()))
_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _JSON_TEXT)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(_JSON_TEXT, _JSON_SCALAR, min_size=1, max_size=6), max_size=4))
@example([])
def test_json_rows_keep_the_indent_2_layout(rows):
    # Rows are encoded one by one, yet read as json.dumps lays out the whole list.
    assert cli.Report(rows).render("json") == json.dumps(rows, indent=2) + "\n"


def test_curve_letter_kind(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--kind", "letter", "--letter", "0", "--n-max", "8", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[-1] == "8,0.625"


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--n-max", "100", "--format", "csv"],
        ["curve", "--kind", "letter", "--letter", "0", "--n-max", "100", "--format", "csv"],
    ],
)
def test_curve_csv_reads_no_exact_value(capsys, monkeypatch, argv):
    # CSV prints only floats, so building the JSON or text form (which read
    # each sample's exact Fraction) would be wasted work.
    from fibword.density import DensitySample

    def unread(sample):
        raise RuntimeError("exact value read for the CSV form")

    monkeypatch.setattr(DensitySample, "value", property(unread))
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))
    expected = next(case["stdout"] for case in golden if case["argv"] == argv)
    assert run_cli(capsys, *argv) == (0, expected, "")


_RSS_PROBE = """
import os
from fibword.cli import main
code = main({argv} + ["--out", os.devnull])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, peak_kb // 1024)
"""


def _exit_code_and_peak_mb(*argv):
    # One command in a fresh process.  VmHWM, unlike ru_maxrss, does not carry
    # over the forking parent's peak.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = _RSS_PROBE.format(argv=ascii(list(argv)))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, peak_mb = map(int, proc.stdout.split())
    return code, peak_mb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_letter_curve_csv_stays_small():
    # Only the CSV lines are built: ~65 MB peak RSS, against ~150 MB when
    # every form was built up front (2-CPU VM, Python 3.11, Linux).
    code, peak_mb = _exit_code_and_peak_mb("curve", "--kind", "letter", "--n-max", "200000", "--format", "csv")
    assert code == 0
    assert peak_mb < 100


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_letter_curve_json_stays_small():
    # The rows are encoded one at a time by the C encoder: ~95 MB peak RSS, against
    # ~290 MB for json.dumps(indent=2) of the whole list (2-CPU VM, Python 3.11, Linux).
    code, peak_mb = _exit_code_and_peak_mb("curve", "--kind", "letter", "--n-max", "200000", "--format", "json")
    assert code == 0
    assert peak_mb < 150


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_many_letter_pattern_stays_small():
    # The pattern's alphabet builds no letter-mask tables (3,000 * 2,999 entries
    # here), which only bitmask counting reads: ~19 MB peak RSS, against ~730 MB
    # and 3 s when every alphabet built them (2-CPU VM, Python 3.11, Linux).
    pattern = "".join(map(chr, range(0x4E00, 0x4E00 + 3000)))  # distinct CJK letters
    code, peak_mb = _exit_code_and_peak_mb("scattered", "--pattern", pattern)
    assert code == 0
    assert peak_mb < 64


def test_letter_curve_past_its_guard_is_exit_3(capsys):
    code, out, err = run_cli(capsys, "curve", "--kind", "letter", "--n-max", "100000000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: letter_density_curve is limited to 1000000 samples (")
    assert err.endswith("; this input needs 100000000\n")


def test_palindromes_report(capsys):
    code, out, _ = run_cli(capsys, "palindromes", "--pattern", "abaa", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_count"] == 4
    assert payload["sp_count"] == 5
    assert payload["pal_factors"] == ["a", "aa", "aba", "b"]


def test_palindromes_past_the_sp_guard_builds_no_factors(capsys, monkeypatch):
    import fibword.palindromes as palindromes

    def refuse(w):
        raise AssertionError("factor strings built for a word past the SP guard")

    monkeypatch.setattr(palindromes, "pal_factors", refuse)
    code, out, err = run_cli(capsys, "palindromes", "--pattern", "a" * 10001)
    assert code == 3
    assert out == ""
    assert err == (
        "error: sp_count is limited to 10000 symbols (0.9-3.1 s and 4-5 MB on random words at the limit); "
        "this input needs 10001\n"
    )


def test_palindromes_density_table(capsys):
    code, out, _ = run_cli(
        capsys, "palindromes", "--prefix", "13", "--length", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "palindrome,count,n,density"
    assert lines[1].startswith("00,3,13,")
    assert lines[2].startswith("11,0,13,")


def test_scattered(capsys):
    code, out, _ = run_cli(capsys, "scattered", "--pattern", "abaa", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"word": "abaa", "sp_count": 5}


@pytest.mark.parametrize("word", ["a,b", 'a,"b', 'x\r\n"y'])
def test_csv_cells_needing_quotes_read_back(capsys, word):
    # RFC 4180: a cell holding a comma, quote, CR or LF is quoted, its quotes doubled
    _, out, _ = run_cli(capsys, "scattered", "--pattern", word, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert header == ["word", "sp_count"]
    assert [row[0] for row in rows] == [word] and all(len(row) == len(header) for row in rows)
    _, out, _ = run_cli(capsys, "palindromes", "--pattern", word, "--format", "json")
    factors = json.loads(out)["pal_factors"]
    _, out, _ = run_cli(capsys, "palindromes", "--pattern", word, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert header == ["factor"]
    assert rows == [[factor] for factor in factors]


def test_squarefree_enumeration(capsys):
    code, out, _ = run_cli(capsys, "squarefree", "--length", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 30
    assert payload["words"][0] == "abaca"


def test_squarefree_bound_table(capsys):
    code, out, _ = run_cli(capsys, "squarefree", "--n-max", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,s_n,lower,upper,lower_holds,upper_holds"
    assert lines[5].startswith("5,30,")
    assert lines[5].endswith("true,false")


def test_squarefree_bound_table_refuses_the_binary_alphabet(capsys):
    # the growth-bound table counts ternary words only, so --alphabet 2 would be ignored
    code, out, err = run_cli(capsys, "squarefree", "--alphabet", "2", "--n-max", "3")
    assert code == 2 and out == ""
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_a_flag_outside_the_chosen_mode_is_set_against_the_flags_it_needs():
    # In every command a mode that takes an optional flag sits beside one-flag modes only, so a flag
    # outside it completes another mode and the two-modes message comes first; these modes are made up.
    args = argparse.Namespace(command="demo", modes=["a [b]", "c d"], a="1", b=None, c="1", d=None)
    with pytest.raises(cli.UsageError, match=r"^--c does not go with --a$"):
        cli._check_mode(args)


def test_catalan_rows(capsys):
    code, out, _ = run_cli(capsys, "catalan", "--n-max", "4", "--format", "csv")
    assert code == 0
    assert out == (
        "n,c_n,table_expr,g_n\n"
        "1,1,0,2\n"
        "2,2,1,3/2\n"
        "3,5,4,6/5\n"
        "4,14,13,15/14\n"
    )


def test_fuzzy_json(capsys):
    code, out, _ = run_cli(
        capsys, "fuzzy", "--n", "4", "--mu-a", "0.8", "--mu-b", "0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [p["symbol"] for p in payload] == list("abaab")
    assert payload[0]["membership"] == 0.8


def test_reproduce_output(capsys):
    code, out, _ = run_cli(capsys, "reproduce-3-2")
    assert code == 0
    assert out == "ones: 17711\nzeros: 10946\nlength: 28657\nratio: 0.6180339887\n"


def test_output_is_deterministic(capsys):
    argvs = [
        ["curve", "--n-max", "20", "--format", "json"],
        ["reproduce-3-2"],
        ["squarefree", "--n-max", "8", "--format", "csv"],
    ]
    for argv in argvs:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "curve", "--n-max", "3", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "n,value"


@pytest.mark.parametrize("target", ["missing/report.csv", "."])
def test_out_write_failure_is_exit_3(tmp_path, capsys, target):
    path = tmp_path / target  # a missing parent directory, or a directory
    code, out, err = run_cli(capsys, "generate", "--n", "3", "--out", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_unencodable_stdout_is_exit_3():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run([sys.executable, "-m", "fibword.cli", "palindromes", "--pattern", "\u00e9a"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: 'ascii' codec can't encode")
    assert proc.stderr.count("\n") == 1


def test_unencodable_out_is_exit_3_and_leaves_no_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "scattered", "--pattern", "\udcff", "--out", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't encode") and err.count("\n") == 1
    assert not path.exists()


# A flag that the chosen mode never reads, or an empty --seeds: each once exited 0 and was ignored.
_IGNORED_FLAGS = [
    ["generate", "--length", "5", "--seeds", "1,10"],
    ["generate", "--n", "3", "--seeds="],
    ["palindromes", "--pattern", "abaa", "--length", "3"],
    ["density", "--prefix", "10", "--a", "0", "--b", "1", "--k", "1", "--tau", "1"],
    ["curve", "--kind", "ratio", "--letter", "1", "--n-max", "3"],
    ["curve", "--letter", "1", "--n-max", "3"],
    ["squarefree", "--n-max", "3", "--alphabet", "3"],
]


@pytest.mark.parametrize("argv", _IGNORED_FLAGS, ids=" ".join)
def test_flag_outside_its_mode_is_exit_2_and_leaves_no_file(tmp_path, capsys, argv):
    path = tmp_path / "report"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not path.exists()


def test_unset_mode_flags_keep_their_defaults(capsys):
    # --kind ratio, --letter 0 and --alphabet 3 when not given
    for unset, given in (
        (["curve", "--n-max", "8"], ["--kind", "ratio"]),
        (["curve", "--kind", "letter", "--n-max", "8"], ["--letter", "0"]),
        (["squarefree", "--length", "4"], ["--alphabet", "3"]),
    ):
        assert run_cli(capsys, *unset) == run_cli(capsys, *unset, *given)
        assert run_cli(capsys, *unset)[0] == 0


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "verify: 9/9 suites ok" in out
    assert "FAIL" not in out


def test_verify_exits_nonzero_on_mismatch(capsys, monkeypatch):
    import fibword.verify as verify_module

    monkeypatch.setattr(verify_module, "SUITES", [("stub", lambda: (False, "forced mismatch"))])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "verify stub: FAIL" in out


def test_memory_error_is_exit_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_generate", exhausted)
    code, out, err = run_cli(capsys, "generate", "--n", "6")
    assert code == 3
    assert out == ""
    assert err == "error: out of memory\n"


_SCIPY_PROBE = """
import io, sys, contextlib
import fibword
assert not [m for m in sys.modules if m.startswith("fibword.")], "import fibword loaded a submodule"
import fibword.cli
for argv in (["generate", "--n", "6"], ["palindromes", "--pattern", "abaa"],
             ["curve", "--n-max", "10"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert fibword.cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "scipy loaded outside the integral model"
assert not {"fibword.verify", "fibword.oracle"} & set(sys.modules), "verify's suites loaded outside verify"
from fibword.density import IntegralParams, integral_density
r = integral_density(IntegralParams(0, 1, 1, 1))
assert abs(r.quadrature - r.closed_form) <= 1e-9 * abs(r.closed_form), r
from fibword.verify import SUITES
assert dict(SUITES)["integral-dual-path"]()[0]
assert "scipy" not in sys.modules
"""


def test_scipy_loads_only_for_the_integral_model():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


_LOAD_PROBE = """
import sys
before = set(sys.modules)  # the interpreter's own start-up set, site's imports included
from fibword.cli import main
code = main({argv})
print()
print(code, sorted(set(sys.modules) - before))
"""
_DENSITY_MODULES = {"density", "fibonacci", "words"}
_PALINDROME_MODULES = {"palindromes", *_DENSITY_MODULES}


# The README's commands in text format, with the fibword modules besides fibword.cli each runs.
_README_COMMANDS = [
    (["generate", "--n", "6"], {"fibonacci", "words"}),
    (["generate", "--length", "34"], {"fibonacci", "words"}),
    (["generate", "--n", "22", "--seeds", "1,10"], {"fibonacci", "words"}),
    (["density", "--pattern", "11", "--prefix", "1000"], _DENSITY_MODULES),
    (["density", "--a", "0", "--b", "inf", "--k", "1", "--tau", "1"], _DENSITY_MODULES),
    (["curve", "--n-max", "100"], _DENSITY_MODULES),
    (["curve", "--kind", "letter", "--letter", "0", "--n-max", "100"], _DENSITY_MODULES),
    (["palindromes", "--pattern", "abaa"], {"palindromes", "words"}),
    (["palindromes", "--prefix", "1000", "--length", "3"], _PALINDROME_MODULES),
    (["scattered", "--pattern", "abaa"], {"palindromes", "words"}),
    (["squarefree", "--length", "5"], {"squarefree", "words"}),
    (["squarefree", "--n-max", "12"], {"squarefree", "words"}),
    (["catalan", "--n-max", "10"], {"catalan", "fibonacci", "words"}),
    (["fuzzy", "--n", "4", "--mu-a", "0.8", "--mu-b", "0.5"], {"fuzzy", "fibonacci", "words"}),
    (["reproduce-3-2"], _DENSITY_MODULES),
    (["verify"], {"verify", "oracle", "squarefree", *_PALINDROME_MODULES}),
]


_README_COMMANDS_TEXT_AND_CSV = _README_COMMANDS + [(argv + ["--format", "csv"], m) for argv, m in _README_COMMANDS]


@pytest.mark.parametrize("argv, modules", _README_COMMANDS_TEXT_AND_CSV,
                         ids=[" ".join(argv) for argv, _ in _README_COMMANDS_TEXT_AND_CSV])
def test_each_command_loads_only_its_own_modules(argv, modules):
    # Each in a fresh interpreter: fibword.cli loads only the modules the command runs, no
    # dataclasses (which pulls in inspect and ast) and, since text and CSV need no encoder, no json.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = _LOAD_PROBE.format(argv=ascii(argv))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    loaded = set(ast.literal_eval(loaded))
    assert code == "0"
    assert {m for m in loaded if m.startswith("fibword")} == {"fibword", "fibword.cli"} | {
        f"fibword.{m}" for m in modules}
    assert not {"dataclasses", "inspect", "json"} & loaded


def _mostly(good, bad):
    """good about seven times in eight, else bad."""
    return st.integers(0, 7).flatmap(lambda i: good if i < 7 else bad)


def _int_flag(lo, hi, refused=()):
    """A small int, or else a value past a guard (refused before any allocation) or a non-int."""
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from([*map(str, refused), "x", ""]))


def _flag_sets(flags, *modes):
    """The flags of one mode of a command, those and any of its other flags, or any subset of its flags."""
    return st.one_of(
        *(st.fixed_dictionaries({f: flags[f] for f in mode}) for mode in modes),
        *(st.fixed_dictionaries({f: flags[f] for f in mode}, optional={f: flags[f] for f in flags if f not in mode})
          for mode in modes),
        st.fixed_dictionaries({}, optional=flags),
    )


_FLOAT = _mostly(
    st.sampled_from(["0", "0.5", "1", "2", "200", "-1", "1e-300", "1e-320", "1e300", "nan", "inf"]),
    st.sampled_from(["-inf", "x"]),
)
_PATTERN = _mostly(st.text("01ab\u00e9\udcff", max_size=8), st.just("ab" * 5001))
_GENERATE = {"--n": _int_flag(-2, 25, [10**9]), "--length": _int_flag(-2, 2000, [2**29 + 1]),
             "--seeds": st.text("01,a", max_size=6)}
_DENSITY = {"--pattern": _PATTERN, "--prefix": _int_flag(-2, 2000, [2**29 + 1]),
            "--a": _FLOAT, "--b": _FLOAT, "--k": _FLOAT, "--tau": _FLOAT}
_CURVE = {"--kind": _mostly(st.sampled_from(["ratio", "letter"]), st.just("x")),
          "--letter": _mostly(st.sampled_from("01"), st.just("2")),
          "--n-max": _int_flag(-2, 300, [10**4 + 1, 10**6 + 1])}
_PALINDROMES = {"--pattern": _PATTERN, "--prefix": _int_flag(-2, 500, [2**29 + 1]),
                "--length": _int_flag(-2, 10)}
_SQUAREFREE = {"--length": _int_flag(-2, 8, [21]), "--alphabet": _mostly(st.sampled_from("23"), st.just("4")),
               "--n-max": _int_flag(-2, 12, [21])}
_FUZZY = {"--n": _int_flag(-2, 12, [31]), "--mu-a": _FLOAT, "--mu-b": _FLOAT}
# Every command but verify (about a second per run, and pinned by the golden file), with
# admitted sizes capped well below what would allocate much: its flags, then its modes.
_COMMANDS = {
    "generate": (_GENERATE, ["--n"], ["--n", "--seeds"], ["--length"]),
    "density": (_DENSITY, ["--pattern", "--prefix"], ["--a", "--b", "--k", "--tau"]),
    "curve": (_CURVE, ["--kind", "--letter", "--n-max"], ["--kind", "--n-max"]),
    "palindromes": (_PALINDROMES, ["--pattern"], ["--prefix", "--length"]),
    "scattered": ({"--pattern": _PATTERN}, ["--pattern"]),
    "squarefree": (_SQUAREFREE, ["--length", "--alphabet"], ["--n-max"]),
    "catalan": ({"--n-max": _int_flag(-2, 40, [201])}, ["--n-max"]),
    "fuzzy": (_FUZZY, ["--n", "--mu-a", "--mu-b"]),
    "reproduce-3-2": ({}, []),
}
_COMMON = {"--format": _mostly(st.sampled_from(["text", "csv", "json"]), st.just("yaml")),
           "--out": st.sampled_from(["file", "missing-dir", "dir"])}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = {**draw(_flag_sets(*_COMMANDS[command])), **draw(st.fixed_dictionaries({}, optional=_COMMON))}
    junk = draw(_mostly(st.just([]), st.sampled_from([["--bogus"], ["stray"]])))
    return [command, *(token for flag in flags.items() for token in flag), *junk]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None)
@given(_argv())
# edges too rare to be drawn: the routes disagree by a NaN, extreme floats (gamma(200) overflows),
# and an unencodable pattern echoed into an --out file or onto stdout
@example(["density", "--a", "0", "--b", "1", "--k", "1", "--tau", "1e-320", "--format", "json"])
@example(["density", "--a", "0", "--b", "inf", "--k", "170", "--tau", "1e-300", "--format", "json"])
@example(["density", "--a", "0", "--b", "1", "--k", "200", "--tau", "1", "--format", "json"])
@example(["scattered", "--pattern", "\udcff", "--out", "file"])
@example(["palindromes", "--pattern", "\udcff"])
# and a flag that the mode never reads, which once exited 0
@example(["generate", "--length", "5", "--seeds", "1,10"])
@example(["density", "--prefix", "10", "--a", "0", "--b", "1", "--k", "1", "--tau", "1"])
@example(["palindromes", "--pattern", "abaa", "--length", "3"])
@example(["squarefree", "--n-max", "3", "--alphabet", "3"])
@example(["curve", "--kind", "ratio", "--letter", "1", "--n-max", "3"])
@example(["curve", "--letter", "1", "--n-max", "3"])
def test_cli_contract_holds_for_drawn_argv(tmp_path_factory, argv):
    base = tmp_path_factory.getbasetemp()
    paths = {"file": base / "report.out", "missing-dir": base / "missing" / "report.out", "dir": base}
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(paths[argv[i]])
        paths["file"].unlink(missing_ok=True)  # left by an earlier example
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 for bad flags, 0 for --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:  # every flag given was read: they all belong to one mode of the command
        flags, *modes = _COMMANDS[argv[0]]
        assert any({token for token in argv if token in flags} <= set(mode) for mode in modes), argv
        if "--letter" in argv:  # curve reads --letter only with --kind letter
            assert "--kind" in argv and argv[argv.index("--kind") + 1] == "letter", argv
    if code == 0 and argv[argv.index("--format") + 1 if "--format" in argv else 0] == "json":
        text = paths["file"].read_text("utf-8") if "--out" in argv else stdout.getvalue()
        json.loads(text, parse_constant=_reject_constant)
