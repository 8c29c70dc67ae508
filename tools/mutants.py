"""Run each one-line mutant of src/fibword against its own module's tests and report which die.

    python3 tools/mutants.py

Each mutant is (name, file, old line, new line, why).  For each one the files its tests read
(src/, tests/, pyproject.toml and README.md) are copied to a temporary directory, the old line is
replaced by the new one, and the module's own test files run there, tests/test_<module>.py (for
cli.py also tests/test_cli_golden.py):

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors TEST_FILE ...

A mutant is killed when a test that passes as the unmutated tree runs the same files fails on the
mutant, and fails again when it runs by itself; a test that then passes failed only through state
that earlier tests left (a warm cache, say), and it is listed as failing after earlier tests.

The unmutated tree runs each set of test files first, and every run is one at a time, so the
suite's wall-clock limits meet the same load on both sides.  A mutant whose old line is missing or
not unique is reported as not applied, and one whose run passes the time limit counts as killed.
This script sits outside tier-1's testpaths, so the suite never runs it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml", "README.md")
PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "-rfE"]
TIME_LIMIT_S = 1200

#: (name, file under src/fibword, old line, new line, why); lines are matched whole, indentation included
MUTANTS = [
    ("form-test-flipped", "density.py",
     "        if not (count is None and type(value) is Fraction or value is None and type(count) is int):",
     "        if not (count is None and type(value) is Fraction or value is None and type(count) is not int):",
     "DensitySample takes an int count and refuses a count of any other type"),
    ("count-test-admits-bools", "density.py",
     "        if not (count is None and type(value) is Fraction or value is None and type(count) is int):",
     "        if not (count is None and type(value) is Fraction or value is None and isinstance(count, int)):",
     "a bool is an int to isinstance, but DensitySample refuses it as a count"),
    ("int-list-one-off", "density.py",
     "    deque(map(DensitySample.n.__set__, samples, islice(ints, 1, None)), 0)",
     "    deque(map(DensitySample.n.__set__, samples, islice(ints, 0, None)), 0)",
     "the letter curve's n run from 1; read from 0, each sample is one position early"),
    ("value-real-through-value", "density.py",
     "        return held / self.n if type(held := self._held) is int else float(held)",
     "        return float(self.value)",
     "value_real must not build the Fraction: CSV reads no exact value"),
    ("kept-growth-unshifted", "fibonacci.py",
     "        built._masks = {c: m | new[c] << len(kept) for c, m in _letter_masks(kept).items()}",
     "        built._masks = {c: m | new[c] for c, m in _letter_masks(kept).items()}",
     "the masks of the symbols past the kept prefix go in above its masks"),
    ("kept-growth-from-zero", "fibonacci.py",
     "        new = _letter_masks(built[len(kept) :])  # only the symbols past kept are parsed",
     "        new = {c: m >> len(kept) for c, m in _letter_masks(built).items()}",
     "growth parses only the new symbols; parsing from symbol 0 gives equal masks but parses the kept ones again"),
    ("slice-cut-unmasked", "fibonacci.py",
     "    w._masks = {c: m & whole for c, m in _letter_masks(kept).items()}",
     "    w._masks = {c: m for c, m in _letter_masks(kept).items()}",
     "a slice's masks hold no bit past its length"),
    ("kept-at-the-cap", "fibonacci.py",
     "        if length > PREFIX_CACHE_SYMBOLS:",
     "        if length >= PREFIX_CACHE_SYMBOLS:",
     "a prefix of exactly PREFIX_CACHE_SYMBOLS symbols is kept"),
    ("admit-at-the-limit", "words.py",
     "    if need > limit:",
     "    if need >= limit:",
     "every guard admits a need equal to its limit"),
    ("distinct-factors-compare-one-late", "words.py",
     "        if (held := block_chars + factor_chars) > limit:",
     "        if (held := block_chars + factor_chars) > limit + 1:",
     "distinct_factors stops at the block that takes its running total past the limit, even by one"),
    ("pal-factors-compare-one-late", "palindromes.py",
     "            if total > limit:  # every factor is built as a string: stop before any is",
     "            if total > limit + 1:  # every factor is built as a string: stop before any is",
     "the eertree stops at the symbol that takes its running total past the limit, even by one"),
    ("sp-buffer-one-rank-early", "palindromes.py",
     "                        term = buf[a : b + 1]",
     "                        term = buf[a - 1 : b]",
     "right end j reads d's buffer at the d before j, slot rank(j), so a row's ranks a..b read slots a..b"),
    ("sp-one-cell-through-itemgetter", "palindromes.py",
     "                    elif a < b:",
     "                    elif a <= b:",
     "itemgetter with one index gives a scalar, not a tuple, so a one-cell row reads its one slot directly"),
    ("sp-chain-built-not-kept", "palindromes.py",
     "                        vals, chained = list(vals), 0",
     "                        vals, chained = list(term), 0",
     "the list built after 8 letters holds the whole chain so far, not only the last letter's term"),
    ("sp-letter-alone-unwritten", "palindromes.py",
     "            buf[cnt[c][i] + 1] = 1",
     "            pass",
     "passing a c at f writes the 1 that c alone adds to every right end past f"),
    ("sp-hull-high-assigned", "palindromes.py",
     "                    if (y := counted[top] - 1) > hi[f + 1]:",
     "                    if (y := counted[top] - 1) >= 0:",
     "a kid's hull only widens: a later parent with a lower top must not cut it"),
    ("eertree-jump-unwalked", "palindromes.py",
     "            jump[last] = v",
     "            jump[last] = links[last]",
     "a jump keeps where the walk below the node stopped, not the node's suffix link"),
    ("eertree-back-by-length-form", "palindromes.py",
     "            back.append(back[v] + 2)",
     "            back.append(back[v] + 4)",
     "c.v.c is 2 longer than v, so its back is back[v] + 2; the + 4 of |v| + 4 counts the 2 of back[v] twice"),
    ("eertree-sentinel-dropped", "palindromes.py",
     "    back, links, ends, sym = [1, 2], [0, 0], [0, 0], [*text, None]  # back[v] = |v| + 2",
     "    back, links, ends, sym = [1, 2], [0, 0], [0, 0], [*text]  # back[v] = |v| + 2",
     "a palindrome that starts the text reads the None at index -1, not the text's last letter"),
    ("shift-and-63-symbols", "density.py",
     "    for j, c in enumerate(p[1:64], 1):",
     "    for j, c in enumerate(p[1:63], 1):",
     "the masks match the first 64 symbols; a 64-symbol pattern is counted by bits alone"),
    ("levels-one-short", "squarefree.py",
     "        for length in range(len(levels) - 1, n):",
     "        for length in range(len(levels) - 1, n - 1):",
     "a call for length n extends the kept levels through level n"),
    ("guard-only-on-growth", "squarefree.py",
     '    _admit("enumeration", n)  # s(n) grows ~1.3x per letter',
     '    _admit("enumeration", n) if n >= len(_levels[alphabet_size]) else None',
     "the enumeration guard holds on every call, also one the kept levels answer"),
    ("table-not-published", "squarefree.py",
     "        _levels[alphabet_size] = levels  # published whole, once: racing threads may build a level twice",
     "        pass",
     "the levels built are kept, so each is built once per process"),
    ("factor-block-one-short", "words.py",
     "        block_chars += len(block := text[s : s + k + 63])",
     "        block_chars += len(block := text[s : s + k + 62])",
     "a block of 64 windows of length k spans k + 63 symbols"),
    ("tally-forgives-one", "verify.py",
     "    return bad == 0, f\"{label.format(len(misses))}, {bad} mismatches\"",
     "    return bad <= 1, f\"{label.format(len(misses))}, {bad} mismatches\"",
     "a verify suite fails on its first mismatch"),
    ("trie-counts-every-subsequence", "oracle.py",
     "            new = {t + c for t in subs} - subs",
     "            new = {t + c for t in subs}",
     "w·c's count adds only the palindromes that are not already subsequences of w"),
    ("trie-one-level-deeper", "oracle.py",
     "            if len(w) + 1 < n_max:",
     "            if len(w) + 1 <= n_max:",
     "the trie walk stops at words of length n_max"),
    ("occurrence-patterns-past-text", "verify.py",
     "        ((p, t) for tlen, t in texts for plen in range(1, min(3, tlen) + 1) for p in patterns[plen]),",
     "        ((p, t) for tlen, t in texts for plen in range(1, min(3, tlen + 1) + 1) for p in patterns[plen]),",
     "the exhaustive occurrence cases pair a text only with patterns no longer than it"),
    ("fib-word-exact-to-w99", "fibonacci.py",
     "    for _ in range(min(n, 100) - 1):  # exact to |w_100|, past every guard; then |w_100| phi**(n - 100) to 40 digits",
     "    for _ in range(min(n, 99) - 1):  # exact to |w_100|, past every guard; then |w_100| phi**(n - 100) to 40 digits",
     "fib_word's refusal states |w_n| itself up to w_100, and its digit count from |w_100| past it"),
    ("runner-arrival-order", "verify.py",
     "    return [(name, *(done[i] if i in done else suite())) for i, (name, suite) in enumerate(SUITES)]",
     "    return [(SUITES[i][0], *done[i]) for i in done] + [(n, *s()) for i, (n, s) in enumerate(SUITES) if i not in done]",
     "verify prints its suites in SUITES order, not in the order their results arrived"),
    ("runner-unreported-left-out", "verify.py",
     "    return [(name, *(done[i] if i in done else suite())) for i, (name, suite) in enumerate(SUITES)]",
     "    return [(name, *done[i]) for i, (name, suite) in enumerate(SUITES) if i in done]",
     "a suite whose result the child did not send back (it raised or died there) runs in the parent"),
    ("runner-parent-leaves-pipe", "verify.py",
     "        while index := os.read(todo, 1):",
     "        while pid == 0 and (index := os.read(todo, 1)):",
     "the parent pulls suites from the pipe too, not only the child"),
    ("runner-child-results-dropped", "verify.py",
     "                os.write(send, marshal.dumps(done))",
     "                pass",
     "the child sends back what it ran, so no suite runs twice"),
    ("lower-series-ratio-one-off", "density.py",
     "        term *= z / (k + i + 1)",
     "        term *= z / (k + i)",
     "the series term t_(i+1) is t_i z / (k + i + 1)"),
    ("upper-fraction-b-one-off", "density.py",
     "        c, b = i * (i - k) if i else 1.0, 2 * i + 1 - k",
     "        c, b = i * (i - k) if i else 1.0, 2 * i + 2 - k",
     "the continued fraction's b_i is z + 2i + 1 - k"),
    ("nan-gap-let-through", "density.py",
     "    if not gap <= 1e-9:  # a NaN on either route fails this too",
     "    if gap > 1e-9:  # a NaN on either route fails this too",
     "integral_density refuses a NaN on either route"),
    ("scaled-one-half-dropped", "density.py",
     "    return half * s * half",
     "    return s * half",
     "x**k exp(-lam x) is computed in two halves, both multiplied in"),
    ("de-node-zero-both-sides", "density.py",
     "    first = 1 if level or sign > 0 else 0",
     "    first = 1 if level else 0",
     "the t = 0 node is counted on one side only"),
    ("long-pattern-starts-one-late", "density.py",
     "    starts = map(add, accumulate(map(len, gaps)), range(len(gaps)))  # zeros + ones before",
     "    starts = map(add, accumulate(map(len, gaps)), range(1, len(gaps) + 1))  # zeros + ones before",
     "a candidate start is the zeros and ones before its mark"),
    ("csv-cr-unquoted", "cli.py",
     "    if isinstance(value, str) and any(c in value for c in ',\"\\r\\n'):",
     "    if isinstance(value, str) and any(c in value for c in ',\"\\n'):",
     "a CSV cell holding a CR is quoted (RFC 4180)"),
    ("two-modes-admitted", "cli.py",
     "    if len(chosen) != 1:",
     "    if not chosen:",
     "argv that completes two modes of a command is a usage error"),
    ("usage-error-exits-3", "cli.py",
     "        return 2",
     "        return 3",
     "a usage error exits 2"),
    ("ones-run-overshoots", "squarefree.py",
     "        while z and r + r <= k:",
     "        while z and r < k:",
     "the run test doubles its run length only while it stays within k"),
    ("ones-run-last-step-long", "squarefree.py",
     "        if z & z >> (k - r):",
     "        if z & z >> (k - r + 1):",
     "the run test's last shift takes the run from r to exactly k"),
    ("stray-symbol-one-early", "squarefree.py",
     '        pos = j + 2 * t.count("0", 0, j) + t.count("1", 0, j)',
     '        pos = j - 1 + 2 * t.count("0", 0, j) + t.count("1", 0, j)',
     "delta_decode's refusal names the first stray b, past the symbols its images stood for"),
    ("decode-short-image-first", "squarefree.py",
     '    t = x.text.replace("abb", "0").replace("ab", "1").replace("a", "2")',
     '    t = x.text.replace("ab", "1").replace("abb", "0").replace("a", "2")',
     "delta_decode replaces the longest image first, or abb reads as ab and a stray b"),
    ("leading-b-refusal-dropped", "squarefree.py",
     '        raise ValueError("no factorization: the word must start with a")',
     "        pass",
     "a word that starts with b is refused as one that does not start with a"),
    ("sp-slots-every-letter", "palindromes.py",
     '    _admit("sp_slots", len([f for f in head.values() if nxt[f] < n]) * (n + 1))  # before any count list is built',
     '    _admit("sp_slots", len(head) * (n + 1))  # before any count list is built',
     "only a letter that occurs twice gets a count list, so only such letters are charged slots"),
    ("repetition-charges-absent-letters", "squarefree.py",
     '    _admit("repetition_test", sum(c in w.text for c in w.alphabet.symbols) * len(w) ** 2)  # before any mask is built',
     '    _admit("repetition_test", len(w.alphabet.symbols) * len(w) ** 2)  # before any mask is built',
     "the repetition guard charges the letters that occur, not every letter of the alphabet"),
    ("membership-max", "fuzzy.py",
     "    return min(fw.memberships)",
     "    return max(fw.memberships)",
     "a fuzzy word's degree is its least symbol degree"),
    ("g-numerator-one-off", "catalan.py",
     "    return 1 + Fraction(n + 1, math.comb(2 * n, n))",
     "    return 1 + Fraction(n + 2, math.comb(2 * n, n))",
     "g(n) = 1 + (n + 1) / binom(2n, n)"),
    ("phi-upper-twice-out", "fibonacci.py",
     "    return Fraction(r + scale, 2 * scale), Fraction(r + 1 + scale, 2 * scale)",
     "    return Fraction(r + scale, 2 * scale), Fraction(r + 2 + scale, 2 * scale)",
     "the bracket is tight to 10**-digits"),
    ("level-loop-skips-last-letter", "oracle.py",
     "        candidates = (t + c for t in level for c in alphabet.symbols)",
     "        candidates = (t + c for t in level for c in alphabet.symbols[:-1])",
     "each level follows every word by every letter of the alphabet, the last one included"),
    ("scan-period-one-short", "oracle.py",
     "        for p in range(1, (n - i - e) // 2 + 1):",
     "        for p in range(1, (n - i - e) // 2):",
     "the scan tries every period whose repetition ends inside the word, the longest one included"),
    ("overlap-scanned-as-square", "oracle.py",
     "    return _repeat_scan(w.text, 1)",
     "    return _repeat_scan(w.text, 0)",
     "an overlap a·x·a·x·a is a square (a·x)(a·x) followed by one more a: e = 1, not 0"),
    ("every-factor-one-early", "words.py",
     "        if len(seen) == every:  # every factor is held, and charged: no later block can add one",
     "        if len(seen) == every - 1:  # every factor is held, and charged: no later block can add one",
     "distinct_factors stops only once it holds all sigma^k factors, not one short of them"),
    ("every-factor-one-late", "words.py",
     "        if len(seen) == every:  # every factor is held, and charged: no later block can add one",
     "        if len(seen) == every + 1:  # every factor is held, and charged: no later block can add one",
     "distinct_factors stops as soon as it holds all sigma^k factors, and the guard never sees later blocks"),
    ("fuzzy-text-built-eagerly", "cli.py",
     "    return Report(({\"symbol\": s, \"membership\": m} for s, m in zip(fw.word.text, fw.memberships)), text())",
     "    return Report(({\"symbol\": s, \"membership\": m} for s, m in zip(fw.word.text, fw.memberships)), list(text()))",
     "fuzzy joins its degrees and reads the word's degree only when text is rendered"),
    ("sliced-blocks-charged-once", "words.py",
     "        block_chars += len(block := text[s : s + k + 63])",
     "        block_chars += len(block := text[s : s + k + 63]) * (block not in blocks)",
     "distinct_factors charges a block each time it slices it, not only the first time"),
    ("json-loaded-for-csv", "cli.py",
     "        if fmt == \"json\":  # rows in indent=2's layout but {} (never given), by the C encoder",
     "        if fmt == \"json\" or not __import__(\"json\"):  # rows in indent=2's layout but {} (never given), by the C encoder",
     "json loads only when JSON is rendered, never for CSV"),
    ("json-rows-indented-2", "cli.py",
     "            rows = map(json.JSONEncoder(separators=(\",\\n    \", \": \")).encode, self.payload)",
     "            rows = map(json.JSONEncoder(separators=(\",\\n  \", \": \")).encode, self.payload)",
     "a row's fields sit 4 spaces in, as json.dumps(rows, indent=2) puts them"),
    ("json-rows-joined-on-one-line", "cli.py",
     "            body = \"\\n  },\\n  {\\n    \".join(row[1:-1] for row in rows)",
     "            body = \"\\n  }, {\\n    \".join(row[1:-1] for row in rows)",
     "each row's closing and the next row's opening brace sit on lines of their own"),
    ("json-empty-list-on-two-lines", "cli.py",
     "            return f\"[\\n  {{\\n    {body}\\n  }}\\n]\\n\" if body else \"[]\\n\"",
     "            return f\"[\\n  {{\\n    {body}\\n  }}\\n]\\n\" if body else \"[\\n]\\n\"",
     "no rows print as [], as json.dumps([], indent=2) does"),
    ("mode-flags-underscored", "cli.py",
     "        return \"/\".join(\"--\" + f.strip(\"[]\").replace(\"_\", \"-\").replace(\"=\", \" \") for f in flags)",
     "        return \"/\".join(\"--\" + f.strip(\"[]\").replace(\"=\", \" \") for f in flags)",
     "a usage error names a flag as typed (--n-max), not by its dest (--n_max)"),
    ("mode-missing-flags-unnamed", "cli.py",
     "        raise UsageError(f\"{show(filter(given, begun[0]))} needs {show(f for f in begun[0] if not given(f))}\")",
     "        raise UsageError(f\"{show(filter(given, begun[0]))} needs {show(begun[0])}\")",
     "a part-given mode names only the flags still missing"),
    ("modes-joined-by-and", "cli.py",
     "        raise UsageError(f\"{args.command} needs exactly one of {' or '.join(map(show, needs))}\")",
     "        raise UsageError(f\"{args.command} needs exactly one of {' and '.join(map(show, needs))}\")",
     "the modes of a command are named as alternatives"),
    ("outside-flag-named-with-optionals", "cli.py",
     "            raise UsageError(f\"{show([flag])} does not go with {show(needs[chosen[0]])}\")",
     "            raise UsageError(f\"{show([flag])} does not go with {show(modes[chosen[0]])}\")",
     "a flag outside the chosen mode is set against the flags that mode needs, not those it may take"),
    ("memory-error-uncaught", "cli.py",
     "    except MemoryError:",
     "    except RecursionError:",
     "running out of memory exits 3 with one line, not a traceback"),
    ("memory-error-exits-1", "cli.py",
     "        print(\"error: out of memory\", file=sys.stderr)",
     "        return 1",
     "running out of memory exits 3, not the 1 of a verify mismatch"),
    ("write-error-only-missing-paths", "cli.py",
     "    except OSError as exc:",
     "    except FileNotFoundError as exc:",
     "every OSError of the write exits 3, a directory given as --out too"),
    ("write-error-exits-1", "cli.py",
     "        print(f\"error: cannot write {args.out or 'stdout'}: {exc.strerror}\", file=sys.stderr)",
     "        return 1",
     "an output that cannot be written exits 3, not the 1 of a verify mismatch"),
    ("idle-stop-one-early", "words.py",
     "            if idle == len(self.domain):",
     "            if idle == len(self.domain) - 1:",
     "iterates may stall for fewer steps than the domain has letters and grow again"),
    ("idle-never-reset", "words.py",
     "            idle = idle + 1 if grown == len(images[seed]) else 0",
     "            idle = idle + 1 if grown == len(images[seed]) else idle",
     "only stalls in a row stop the iteration; a step that grows starts the count again"),
    ("nth-symbol-one-late", "fibonacci.py",
     "    n = i + 1",
     "    n = i + 2",
     "symbol i of the word is read at n = i + 1 of the characteristic form"),
    ("floor-phi-rounded-up", "fibonacci.py",
     "    return (n + math.isqrt(5 * n * n)) // 2",
     "    return (n + math.isqrt(5 * n * n) + 1) // 2",
     "floor(n phi) is (n + floor(n sqrt 5)) // 2, rounded down"),
    ("fib-word-seeds-swapped", "fibonacci.py",
     "    images = {\"0\": seeds.second.text, \"1\": seeds.first.text}",
     "    images = {\"0\": seeds.first.text, \"1\": seeds.second.text}",
     "w_n = h(phi^(n-2)(0)) with h(0) the second seed and h(1) the first"),
]


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".perfbench", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def _apply(tree: Path, file: str, old: str, new: str) -> bool:
    path = tree / "src" / "fibword" / file
    lines = path.read_text("utf-8").split("\n")
    if lines.count(old) != 1:
        return False
    lines[lines.index(old)] = new
    path.write_text("\n".join(lines), "utf-8")
    return True


def _pytest(tree: Path, tests: list[str]) -> tuple[set[str], str] | None:
    """The failing test ids and pytest's last line, for the given tests; None on a timeout."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(PYTEST + tests, cwd=tree, env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = run.stdout.strip().splitlines()
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in lines if line.startswith(("FAILED ", "ERROR "))}
    return failed, lines[-1] if lines else f"exit {run.returncode}, no output"


def _own_tests(file: str) -> tuple[str, ...]:
    """The test files of the module that file names: its own, and for cli.py the golden records."""
    own = (f"tests/test_{file.removesuffix('.py')}.py",)
    return own + ("tests/test_cli_golden.py",) if file == "cli.py" else own


def _run(mutant: tuple, base: set[str]) -> tuple:
    """The mutant's own tests on a copy of the tree: (status, the tests failing outside base, those of
    them that pass when rerun alone, pytest's last line, seconds).  The status is "ran", "not applied"
    or "timed out"."""
    with tempfile.TemporaryDirectory(prefix="fibword-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if not _apply(tree, *mutant[1:4]):
            return "not applied", [], set(), "old line missing or not unique", 0.0
        start = time.perf_counter()
        if (result := _pytest(tree, list(_own_tests(mutant[1])))) is None:
            return "timed out", [], set(), f"no result in {TIME_LIMIT_S} s", time.perf_counter() - start
        failed, summary = result
        alone = set()
        if (newly := sorted(failed - base)) and (again := _pytest(tree, newly)):
            alone = set(newly) - again[0]
        return "ran", newly, alone, summary, time.perf_counter() - start


def main() -> int:
    bases = {}
    with tempfile.TemporaryDirectory(prefix="fibword-unmutated-") as tmp:
        _copy_tree(Path(tmp))
        for tests in sorted({_own_tests(m[1]) for m in MUTANTS}):
            start = time.perf_counter()
            if (result := _pytest(Path(tmp), list(tests))) is None:
                print(f"error: the unmutated tree gave no result in {TIME_LIMIT_S} s", file=sys.stderr)
                return 2
            bases[tests], summary = result
            print(f"unmutated {' '.join(tests)}: {summary} in {time.perf_counter() - start:.0f} s; "
                  f"failing: {', '.join(sorted(bases[tests])) or 'none'}")
    killed, start = 0, time.perf_counter()
    for mutant in MUTANTS:
        name, file, _, _, why = mutant
        status, newly, alone, summary, seconds = _run(mutant, bases[_own_tests(file)])
        if status == "not applied":
            verdict = status
        elif status == "timed out" or set(newly) - alone:  # killed only by a test that fails alone too
            verdict, killed = "killed", killed + 1
        else:
            verdict = "SURVIVED"
        print(f"{verdict:11s} {name} ({file}) by {' '.join(_own_tests(file))}: {summary} in {seconds:.0f} s; {why}")
        for test in newly[:5]:
            print(f"            fails {test}" + (" after earlier tests (passes alone)" if test in alone else ""))
        if len(newly) > 5:
            print(f"            and {len(newly) - 5} more")
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
