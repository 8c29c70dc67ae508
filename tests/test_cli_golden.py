"""Golden CLI outputs: every command form, in every format, byte for byte.

tests/data/cli_golden.json holds (argv, exit code, stdout, stderr) for each
command form in text, csv and json: the README examples, edge inputs whose
empty rows print differently per command, and one usage error (exit 2) and
one guard error (exit 3) per command.  It was captured by running
``fibword.cli.main`` on each argv.  An intended change to the output edits
that file in the same change; nothing here regenerates it.
"""

import json
import shlex
from pathlib import Path

import pytest

from fibword.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))


def _case_id(case):
    return " ".join(arg if len(arg) <= 16 else arg[:8] + "..." for arg in case["argv"])


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps its usage lines to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_output_matches_golden(case, capsys):
    assert _run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("case", [c for c in CASES if c["code"] == 0], ids=_case_id)
def test_out_writes_golden_bytes(case, capsys, tmp_path):
    target = tmp_path / "report"
    code, out, err = _run(capsys, case["argv"] + ["--out", str(target)])
    assert (code, out, err) == (0, "", case["stderr"])
    assert target.read_bytes() == case["stdout"].encode("utf-8")


def _readme_examples():
    """argv of each `fibword ...` line in the sh block under README's ## CLI,
    without its --format."""
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["fibword"]:
            if "--format" in argv:
                at = argv.index("--format")
                del argv[at : at + 2]
            examples.append(argv[1:])
    return examples


def test_readme_examples_are_pinned_in_every_format():
    examples = _readme_examples()
    assert examples
    pinned = {tuple(case["argv"]) for case in CASES}
    missing = [
        " ".join(argv + ["--format", fmt])
        for argv in examples
        for fmt in ("text", "csv", "json")
        if tuple(argv + ["--format", fmt]) not in pinned
    ]
    assert missing == []


_FUZZY_CSV_AND_JSON = [c for c in CASES if c["argv"][0] == "fuzzy" and c["code"] == 0 and c["argv"][-1] != "text"]


@pytest.mark.parametrize("case", _FUZZY_CSV_AND_JSON, ids=_case_id)
def test_fuzzy_builds_its_text_lines_only_for_text(case, capsys, monkeypatch):
    # the text form alone reads the word's degree, so CSV and JSON keep their bytes without it
    def unread(fw):
        raise AssertionError("the text lines were built")
    monkeypatch.setattr("fibword.fuzzy.word_membership", unread)
    assert _run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])
    with pytest.raises(AssertionError, match="the text lines were built"):
        main(case["argv"][:-1] + ["text"])
