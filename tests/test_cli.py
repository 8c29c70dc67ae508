"""The command-line front end: outputs, formats, determinism, exit codes."""

import json

import pytest

from fibword.cli import main


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


def test_curve_letter_kind(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--kind", "letter", "--letter", "0", "--n-max", "8", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[-1] == "8,0.625"


def test_palindromes_report(capsys):
    code, out, _ = run_cli(capsys, "palindromes", "--pattern", "abaa", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_count"] == 4
    assert payload["sp_count"] == 5
    assert payload["pal_factors"] == ["a", "aa", "aba", "b"]


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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "verify: 8/8 suites ok" in out
    assert "FAIL" not in out


def test_verify_exits_nonzero_on_mismatch(capsys, monkeypatch):
    import fibword.verify as verify_module

    monkeypatch.setattr(verify_module, "SUITES", [("stub", lambda: (False, "forced mismatch"))])
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "verify stub: FAIL" in out
