"""The three workloads: seeded op plans, op execution and output checks.

An op is plain data made from the seed.  ``execute`` hands its inputs to
the library inside the timed region; ``check`` then verifies the result
against a closed form or ``fibword.oracle``, outside it.

Plans come in rounds.  Every round of a workload holds the same multiset
of op shapes (kind and size class); the seed chooses their order, the
exact prefix lengths (up to 5% below the size class), which earlier lengths
are repeated, and the contents of random words.  So no two seeds share
inputs, while the cost of a round stays the same across seeds.

Importing this module imports fibword: the caller puts the working tree's
``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from fibword import cli, fibonacci, oracle, palindromes, squarefree, words
from fibword.words import AB, ABC, BINARY

# The package re-exports a function named density over the module's name.
density = importlib.import_module("fibword.density")

WORKLOADS = ("cli-session", "prefix-density", "palindromes-squarefree")

#: s(n), the number of ternary square-free words of length n, n = 0..20.
SQUARE_FREE_COUNTS = (
    1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144,
    204, 264, 342, 456, 618, 798, 1044, 1392, 1830, 2388,
)

#: Factors that never occur in the Fibonacci word.
ABSENT = ("11", "000")

#: Largest prefix on which counts are re-derived by oracle.brute_count.
BRUTE_COUNT_MAX = 20000


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    #: Length of the Fibonacci prefix the op builds, 0 if it builds none.
    prefix_len: int = 0

    @property
    def label(self) -> str:
        """The kind, plus the input family for kinds that take several."""
        return f"{self.kind}:{self.args[0]}" if self.kind in _FAMILY_KINDS else self.kind


# Kinds whose first argument names the input family (fib, random, ...).
_FAMILY_KINDS = ("pal_factors", "sp_count")


# ---------------------------------------------------------------------------
# Reference arithmetic, independent of the library.


def floor_phi(n: int) -> int:
    """floor(n * phi), exactly."""
    return (n + math.isqrt(5 * n * n)) // 2


def ones_in_prefix(n: int) -> int:
    """Number of 1s in the first n symbols of the Fibonacci word."""
    return 2 * n + 1 - floor_phi(n + 1)


def letter_count(letter: str, n: int) -> int:
    ones = ones_in_prefix(n)
    return ones if letter == "1" else n - ones


def fib_number(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def reference_prefix(n: int) -> str:
    """The n-prefix of the Fibonacci word by s_k = s_{k-1} s_{k-2}."""
    prev, cur = "0", "01"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


_REFERENCE = reference_prefix(2000)


def factors_of_length(k: int) -> list[str]:
    """The k+1 factors of length k of the Fibonacci word, sorted."""
    return sorted({_REFERENCE[i : i + k] for i in range(len(_REFERENCE) - k + 1)})


# ---------------------------------------------------------------------------
# Plans.


class _Lengths:
    """Prefix lengths up to 5% below a size class.  A repeated length is
    one the run already used in the same class, whichever op used it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: dict[int, list[int]] = {}

    def pick(self, size: int, repeat: bool) -> int:
        used = self.used.setdefault(size, [])
        if repeat and used:
            return self.rng.choice(used)
        n = round(size * self.rng.uniform(0.95, 1.0))
        used.append(n)
        return n


_GENERATE_SIZES = (10**5, 3 * 10**5, 10**6, 3 * 10**6)
_FIB_WORD_INDICES = (26, 28, 30, 32)
# (factor length k, prefix size class)
_COUNT_SHAPES = ((1, BRUTE_COUNT_MAX), (2, 10**5), (3, 3 * 10**5), (4, BRUTE_COUNT_MAX),
                 (5, 10**5), (6, 3 * 10**5), (7, BRUTE_COUNT_MAX), (8, 10**5),
                 (2, BRUTE_COUNT_MAX), (3, BRUTE_COUNT_MAX))
_DENSITY_SHAPES = ((1, 10**6), (2, 3 * 10**5), (3, 10**5), (4, 3 * 10**5), (5, 10**5), (8, 10**5))
_CURVE_SIZES = (2 * 10**4, 5 * 10**4, 2 * 10**5)
_RATIO_SIZES = (10**3, 3 * 10**3, 10**4)
_TABLE_SIZES = (10**5, 3 * 10**5)
_FACTOR_SIZE = 10**5
# The grid of `fibword verify`'s integral suite: (k, tau, a, b).
_INTEGRAL_GRID = tuple(
    (k, tau, a, b)
    for k in (0.5, 1.0, 2.0, 5.0)
    for tau in (0.5, 1.0, 2.0)
    for a, b in ((0.0, 1.0), (0.0, 10.0), (1.0, 3.0))
)


def _size_class(shape) -> int | None:
    kind, size, _ = shape
    return size[1] if kind in ("count", "density") else size


def _prefix_density_round(rng: random.Random, state: dict) -> list[Op]:
    lengths = state.setdefault("lengths", _Lengths(rng))
    r = state["round"] = state.get("round", -1) + 1
    # (kind, shape, repeat): half of the prefix-building shapes reuse a length.
    shapes = [("generate", n, rep) for n in _GENERATE_SIZES for rep in (False, True)]
    shapes += [("fib_word", i, False) for i in _FIB_WORD_INDICES]
    shapes += [("count", s, i % 2 == 1) for i, s in enumerate(_COUNT_SHAPES)]
    shapes += [("density", s, i % 2 == 1) for i, s in enumerate(_DENSITY_SHAPES)]
    shapes += [("letter_curve", n, (i + r) % 2 == 1) for i, n in enumerate(_CURVE_SIZES)]
    shapes += [("ratio_curve", n, False) for n in _RATIO_SIZES]
    shapes += [("pal_table", n, (i + r) % 2 == 1) for i, n in enumerate(_TABLE_SIZES)]
    shapes += [("integral", None, False)] * 4
    shapes += [("factors", _FACTOR_SIZE, r % 2 == 1)]
    rng.shuffle(shapes)
    # A repeat drawn before its size class has any length is deferred to
    # the end of the round, where the class has one.
    deferred = [s[2] and not lengths.used.get(_size_class(s)) for s in shapes]
    shapes = [s for s, d in zip(shapes, deferred) if not d] + [s for s, d in zip(shapes, deferred) if d]
    ops = []
    for kind, shape, repeat in shapes:
        if kind == "fib_word":
            ops.append(Op(kind, (shape,), fib_number(shape)))
        elif kind in ("count", "density"):
            k, size = shape
            n = lengths.pick(size, repeat)
            patterns = factors_of_length(k) + [rng.choice(ABSENT)]
            rng.shuffle(patterns)
            ops.append(Op(kind, (n, tuple(patterns)), n))
        elif kind == "letter_curve":
            n = lengths.pick(shape, repeat)
            ops.append(Op(kind, (rng.choice("01"), n), n))
        elif kind == "pal_table":
            n = lengths.pick(shape, repeat)
            ops.append(Op(kind, (n, rng.randint(3, 6)), n))
        elif kind == "ratio_curve":
            ops.append(Op(kind, (shape,)))
        elif kind == "integral":
            ops.append(Op(kind, rng.choice(_INTEGRAL_GRID)))
        else:  # generate, factors
            n = lengths.pick(shape, repeat)
            ops.append(Op(kind, (n,), n))
    return ops


def _random_text(rng: random.Random, letters: str, n: int) -> str:
    return "".join(rng.choices(letters, k=n))


# Calls that take milliseconds are grouped into one op (a binary and a
# ternary word of one size; all square-free lengths; all overlap inputs; all
# codec sizes).  A 10 ms call varies by 30% from run to run on a shared
# 2-CPU machine, so the median op is better taken among ops of 0.1 s.
_PAL_FIB_SIZES = (1000, 2000, 4096, 5000, 8000)  # straddles SCAN_LIMIT = 4096
# Each group is one op: a binary and a ternary word per size.
_PAL_RANDOM_SIZES = ((10**4, 3 * 10**4), (10**5,))
# (period, length): unary and periodic words, the center scan's worst case.
_PAL_PERIODIC = (("a", 256), ("a", 2048), ("ab", 1024), ("aab", 2048), ("abb", 256))
_SP_FIB_SIZES = (100, 300, 600, 1200)
# Six random words of 600 put the median op among like-costed ops of about
# 0.1 s, so that op_p50_s is a median over many samples rather than over
# the three repeats of one op.
_SP_RANDOM_SIZES = ((14, 100), (300,)) + ((600,),) * 6 + ((1200,),)
_SF_SIZES = (tuple(range(10, 19)), (19, 20))
_BRANDENBURG_SIZE = 20
_THUE_MORSE_SIZES = (1000, 4000, 16000)
_OVERLAP_RANDOM_SIZE = 4000
_CODEC_SIZES = (60, 10**3, 10**4, 10**5)


def _palindromes_squarefree_round(rng: random.Random, state: dict) -> list[Op]:
    ops = [Op("pal_factors", ("fib", n), n) for n in _PAL_FIB_SIZES]
    for sizes in _PAL_RANDOM_SIZES:
        texts = tuple(_random_text(rng, letters, n) for n in sizes for letters in ("01", "abc"))
        ops.append(Op("pal_factors", ("random", texts)))
    for period, n in _PAL_PERIODIC:
        if rng.random() < 0.5:
            period = period.translate(str.maketrans("ab", "ba"))
        family = "unary" if len(period) == 1 else "periodic"
        ops.append(Op("pal_factors", (family, ((period * n)[:n],))))
    ops += [Op("sp_count", ("fib", n), n) for n in _SP_FIB_SIZES]
    for sizes in _SP_RANDOM_SIZES:
        ops.append(Op("sp_count", ("random", tuple(_random_text(rng, "01", n) for n in sizes))))
    ops += [Op("square_free", sizes) for sizes in _SF_SIZES]
    ops.append(Op("brandenburg", (_BRANDENBURG_SIZE,)))
    overlap = [("thue-morse", n) for n in _THUE_MORSE_SIZES]
    overlap += [("random", _random_text(rng, letters, _OVERLAP_RANDOM_SIZE)) for letters in ("01", "abc")]
    ops.append(Op("overlap", tuple(overlap)))
    ops.append(Op("codec", tuple(_random_text(rng, "abc", n) for n in _CODEC_SIZES)))
    rng.shuffle(ops)
    return ops


def _cli_session_round(rng: random.Random, state: dict) -> list[Op]:
    # Each example cycles through the three formats, one per round, from
    # a seeded starting format; one seeded example per round writes --out.
    offsets = state.setdefault("offsets", [rng.randrange(3) for _ in CLI_EXAMPLES])
    r = state["round"] = state.get("round", -1) + 1
    out = rng.randrange(len(CLI_EXAMPLES))
    ops = [
        Op("cli", (i, FORMATS[(r + offsets[i]) % 3], i == out))
        for i in range(len(CLI_EXAMPLES))
    ]
    rng.shuffle(ops)
    return ops


#: Wall time of one round, checks included, at the commit that defined
#: the benchmark on a 2-CPU machine.  A run of S seconds does
#: round(S / ROUND_SECONDS) whole rounds, on every commit: a fixed op count
#: keeps the tail percentile fixed, so a faster build lowers every latency
#: metric instead of moving the tail to another op kind.
ROUND_SECONDS = {"cli-session": 16.0, "prefix-density": 4.8, "palindromes-squarefree": 8.5}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def plan(workload: str, seed: int, rounds: int) -> list[list[Op]]:
    """The op list of a run, in rounds."""
    make = {
        "cli-session": _cli_session_round,
        "prefix-density": _prefix_density_round,
        "palindromes-squarefree": _palindromes_squarefree_round,
    }[workload]
    rng = random.Random(f"{workload}/{seed}")
    state: dict = {}
    return [make(rng, state) for _ in range(rounds)]


def census() -> list[Op]:
    """Every CLI example (text format) and one small op of every kind.

    A traced run ends with these, so that every per-layer metric is
    measured on every workload, not only on the one that stresses that
    layer.  The inputs are fixed: the census does not depend on the seed."""
    ternary = "abcacbabcbac"
    return [Op("cli", (i, "text", False)) for i in range(len(CLI_EXAMPLES))] + [
        Op("generate", (1000,), 1000),
        Op("fib_word", (16,), fib_number(16)),
        Op("count", (1000, tuple(factors_of_length(2)) + ABSENT), 1000),
        Op("density", (1000, tuple(factors_of_length(1)) + ABSENT), 1000),
        Op("letter_curve", ("0", 1000), 1000),
        Op("ratio_curve", (100,)),
        Op("pal_table", (1000, 3), 1000),
        Op("integral", _INTEGRAL_GRID[0]),
        Op("factors", (1000,), 1000),
        Op("pal_factors", ("fib", 200), 200),
        Op("pal_factors", ("fib", 300), 300),
        Op("pal_factors", ("random", ("0110100110010110", ternary))),
        Op("sp_count", ("fib", 14), 14),
        Op("square_free", (10,)),
        Op("brandenburg", (8,)),
        Op("overlap", (("thue-morse", 1000), ("random", ternary))),
        Op("codec", (ternary,)),
    ]


# ---------------------------------------------------------------------------
# Execution.  Library functions are looked up on their modules at call
# time, so the tracer's wrappers are used when installed.


@dataclass
class Context:
    tracer: object
    #: "subprocess" runs `python -m fibword.cli`; "inprocess" calls cli.main.
    cli_mode: str = "subprocess"
    #: Directory for --out files, inside the checkout.
    tmp: Path | None = None
    #: Environment of CLI subprocesses (PYTHONPATH pointing at src).
    env: dict | None = None


def _word(ctx: Context, alphabet, text: str):
    with ctx.tracer.span("words.Word", symbols=len(text)):
        return words.Word(alphabet, text)


def _alphabet(text: str):
    return ABC if "c" in text else AB if "a" in text or "b" in text else BINARY


def _input_words(ctx: Context, family: str, payload) -> list:
    """A Fibonacci prefix of length `payload`, or a word per text."""
    if family == "fib":
        return [fibonacci.infinite_prefix(payload)]
    return [_word(ctx, _alphabet(text), text) for text in payload]


def _run_cli(op: Op, ctx: Context):
    index, fmt, use_out = op.args
    argv = list(CLI_EXAMPLES[index][0]) + ["--format", fmt]
    out_path = ctx.tmp / f"out-{index}-{fmt}.txt" if use_out else None
    if out_path:
        argv += ["--out", str(out_path)]
    if ctx.cli_mode == "subprocess":
        proc = subprocess.run(
            [sys.executable, "-m", "fibword.cli", *argv],
            capture_output=True, text=True, env=ctx.env, timeout=120,
        )
        code, stdout = proc.returncode, proc.stdout
    else:
        buf = io.StringIO()
        with ctx.tracer.span("cli.main") as counts:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            stdout = buf.getvalue()
            counts["output_bytes"] = len(stdout.encode())
    return code, stdout, out_path


def execute(op: Op, ctx: Context):
    kind, a = op.kind, op.args
    if kind == "cli":
        return _run_cli(op, ctx)
    if kind == "generate":
        return fibonacci.infinite_prefix(a[0])
    if kind == "fib_word":
        return fibonacci.fib_word(a[0])
    if kind == "count":
        text = fibonacci.infinite_prefix(a[0])
        counts = [density.count_occurrences(_word(ctx, BINARY, p), text) for p in a[1]]
        return text, counts
    if kind == "density":
        return [density.density(_word(ctx, BINARY, p), a[0]) for p in a[1]]
    if kind == "letter_curve":
        return density.letter_density_curve(*a)
    if kind == "ratio_curve":
        return density.ratio_curve(a[0])
    if kind == "pal_table":
        return palindromes.pal_density_table(*a)
    if kind == "integral":
        k, tau, lo, hi = a
        return density.integral_density(density.IntegralParams(a=lo, b=hi, k=k, tau=tau))
    if kind == "factors":
        text = fibonacci.infinite_prefix(a[0])
        return [words.distinct_factors(text, k) for k in range(1, 9)]
    if kind == "pal_factors":
        return [(w, palindromes.pal_factors(w)) for w in _input_words(ctx, *a)]
    if kind == "sp_count":
        return [(w, palindromes.sp_count(w)) for w in _input_words(ctx, *a)]
    if kind == "square_free":
        return [squarefree.enumerate_square_free(3, n) for n in a]
    if kind == "brandenburg":
        return squarefree.brandenburg_table(a[0])
    if kind == "overlap":
        out = []
        for family, payload in a:
            if family == "thue-morse":
                w = squarefree.thue_morse_prefix(payload)
            else:
                w = _word(ctx, _alphabet(payload), payload)
            out.append((family, w, squarefree.has_overlap(w)))
        return out
    if kind == "codec":
        out = []
        for text in a:
            source = _word(ctx, ABC, text)
            out.append((source, squarefree.delta_decode(squarefree.delta_encode(source))))
        return out
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Checks: each returns None when the result is right, else a message.


def _prefix_problem(w, n: int) -> str | None:
    if len(w) != n:
        return f"prefix has length {len(w)}, expected {n}"
    ones = w.text.count("1")
    if ones != ones_in_prefix(n):
        return f"{ones} ones in the {n}-prefix, closed form gives {ones_in_prefix(n)}"
    return None


def _counts_problem(n: int, patterns, counts, text=None) -> str | None:
    total, k = 0, 0
    for p, c in zip(patterns, counts):
        if p in ABSENT:
            if c != 0:
                return f"absent factor {p} counted {c} times"
        else:
            total, k = total + c, len(p)
        if p == "1" and c != ones_in_prefix(n):
            return f"count of 1 is {c}, closed form gives {ones_in_prefix(n)}"
    if total != n - k + 1:
        return f"length-{k} factor counts sum to {total}, expected {n - k + 1}"
    if text is not None and n <= BRUTE_COUNT_MAX:
        for p, c in zip(patterns, counts):
            brute = oracle.brute_count(words.Word(BINARY, p), text)
            if c != brute:
                return f"count of {p} is {c}, oracle gives {brute}"
    return None


def _sample_count(sample, n: int):
    """The occurrence count behind a density sample, or None if the
    sample is not count/n."""
    count = sample.value * n
    return count.numerator if sample.n == n and count.denominator == 1 else None


def _pal_problem(family: str, w, report) -> str | None:
    text, n = w.text, len(w)
    found = [f.text for f in report.pal_factors]
    if report.p_count != len(found) or len(set(found)) != len(found):
        return "p_count disagrees with the distinct factor list"
    if found != sorted(found):
        return "factors are not in lexicographic order"
    step = max(1, len(found) // 64)
    for t in found[::step]:
        if t != t[::-1] or t not in text:
            return f"{t!r} is not a palindromic factor"
    if family in ("fib", "unary") and report.p_count != n:
        return f"P = {report.p_count} on a rich word of length {n}"
    if report.p_count > n:
        return f"P = {report.p_count} exceeds |w| = {n}"
    if n <= 300 and set(found) != {x.text for x in oracle.brute_pal_factor_set(w)}:
        return "factor set differs from oracle.brute_pal_factor_set"
    return None


def check(op: Op, result) -> str | None:
    kind, a = op.kind, op.args
    if kind == "cli":
        return _cli_problem(op, *result)
    if kind == "generate":
        return _prefix_problem(result, a[0])
    if kind == "fib_word":
        return _prefix_problem(result, fib_number(a[0]))
    if kind == "count":
        text, counts = result
        return _prefix_problem(text, a[0]) or _counts_problem(a[0], a[1], counts, text)
    if kind == "density":
        counts = [_sample_count(s, a[0]) for s in result]
        if None in counts:
            return "a density sample is not count / n"
        return _counts_problem(a[0], a[1], counts)
    if kind == "letter_curve":
        letter, n = a
        if len(result) != n:
            return f"curve has {len(result)} samples, expected {n}"
        for m in list(range(1, n, max(1, n // 200))) + [n]:
            if _sample_count(result[m - 1], m) != letter_count(letter, m):
                return f"letter density at n = {m} disagrees with the closed form"
        return None
    if kind == "ratio_curve":
        if len(result) != a[0]:
            return f"curve has {len(result)} samples, expected {a[0]}"
        f, g = 1, 1
        for m, sample in enumerate(result, start=1):
            # Consecutive Fibonacci numbers are coprime, so F_n / F_(n+1)
            # is already in lowest terms.
            if (sample.n, sample.value.numerator, sample.value.denominator) != (m, f, g):
                return f"ratio at n = {m} is not F_n / F_(n+1)"
            f, g = g, f + g
        return None
    if kind == "pal_table":
        n, length = a
        expected = {
            t for t in ("".join(bits) for bits in _bit_strings(length)) if t == t[::-1]
        }
        if {w.text for w in result} != expected:
            return f"table does not list the {len(expected)} binary palindromes of length {length}"
        total = 0
        for w, sample in result.items():
            c = _sample_count(sample, n)
            if c is None:
                return "a density sample is not count / n"
            if c and any(x in w.text for x in ABSENT):
                return f"{w.text} contains an absent factor but counts {c}"
            total += c
        return None if total <= n - length + 1 else "palindrome counts exceed the windows"
    if kind == "integral":
        scale = max(abs(result.closed_form), 1e-300)
        if abs(result.quadrature - result.closed_form) / scale > 1e-9:
            return f"integral routes disagree: {result.quadrature!r} vs {result.closed_form!r}"
        return None
    if kind == "factors":
        for k, found in enumerate(result, start=1):
            if [f.text for f in found] != factors_of_length(k):
                return f"distinct_factors(k = {k}) is not the k+1 factors of the word"
        return None
    if kind == "pal_factors":
        return _first(_pal_problem(a[0], w, report) for w, report in result)
    if kind == "sp_count":
        return _first(_sp_problem(w, count) for w, count in result)
    if kind == "square_free":
        return _first(_square_free_problem(n, found) for n, found in zip(a, result))
    if kind == "brandenburg":
        got = [(r.n, r.s_n) for r in result]
        want = [(n, SQUARE_FREE_COUNTS[n]) for n in range(1, a[0] + 1)]
        return None if got == want else "s(n) column disagrees with the known counts"
    if kind == "overlap":
        return _first(_overlap_problem(*r) for r in result)
    if kind == "codec":
        return _first(_codec_problem(*r) for r in result)
    raise ValueError(f"unknown op kind {kind!r}")


def _first(problems) -> str | None:
    return next((p for p in problems if p), None)


def _sp_problem(w, count: int) -> str | None:
    if len(w) <= 14 and count != oracle.brute_sp_count(w):
        return f"SP = {count}, oracle gives {oracle.brute_sp_count(w)}"
    return None if count >= len(w) else f"SP = {count} is below |w| = {len(w)}"


def _square_free_problem(n: int, result) -> str | None:
    found = [w.text for w in result]
    if len(found) != SQUARE_FREE_COUNTS[n]:
        return f"{len(found)} square-free words of length {n}, expected {SQUARE_FREE_COUNTS[n]}"
    if found != sorted(set(found)):
        return "square-free words are not distinct and sorted"
    for w in result[:: max(1, len(result) // 32)]:
        if len(w) != n or oracle.brute_square_scan(w):
            return f"{w.text} is not a square-free word of length {n}"
    return None


def _overlap_problem(family: str, w, found: bool) -> str | None:
    want = False if family == "thue-morse" else oracle.brute_overlap_scan(w)
    return None if found == want else f"has_overlap = {found} on a {family} word, expected {want}"


def _codec_problem(source, decoded) -> str | None:
    if decoded != source:
        return "codec round trip changed the word"
    image = "".join({"a": "abb", "b": "ab", "c": "a"}[c] for c in source.text)
    if len(source) <= 80 and oracle.delta_factorizations(words.Word(AB, image)) != [source]:
        return "codec image does not factor uniquely"
    return None


def _bit_strings(length: int):
    return (format(i, f"0{length}b") for i in range(2**length))


# ---------------------------------------------------------------------------
# The CLI examples (the README's), with the tokens each output must hold.

FORMATS = ("text", "csv", "json")

_TOKEN = re.compile(r"[A-Za-z0-9_.+-]+")


def _tokens(*items) -> Counter:
    return Counter(str(x) for x in items)


def _expect_ratio_curve(fmt):
    out, f, g = Counter(), 1, 1
    for n in range(1, 101):
        out += _tokens(n, repr(f / g))
        f, g = g, f + g
    return out


def _expect_letter_curve(fmt):
    out = Counter()
    for n in range(1, 101):
        out += _tokens(n, repr(float(Fraction(letter_count("0", n), n))))
    return out


def _expect_pal_report(fmt):
    w = words.Word(AB, "abaa")
    found = sorted(x.text for x in oracle.brute_pal_factor_set(w))
    if fmt == "csv":
        return _tokens(*found)
    return _tokens(*found, len(found), oracle.brute_sp_count(w))


def _expect_pal_table(fmt):
    text = words.Word(BINARY, reference_prefix(1000))
    out = Counter()
    for p in ("000", "010", "101", "111"):
        c = oracle.brute_count(words.Word(BINARY, p), text)
        out += _tokens(p, c, 1000, repr(c / 1000))
    return out


def _expect_square_free(fmt):
    found = [w.text for w in oracle.brute_square_free_words(3, 5)]
    return _tokens(*found) if fmt == "csv" else _tokens(*found, len(found))


def _expect_catalan(fmt):
    out = Counter()
    for n in range(1, 11):
        c = math.comb(2 * n, n) // (n + 1)
        g = 1 + Fraction(n + 1, math.comb(2 * n, n))
        out += _tokens(n, c, c - 1, g.numerator)
        if g.denominator != 1:
            out += _tokens(g.denominator)
    return out


def _expect_fuzzy(fmt):
    text = "abaab"  # F(4) of F(0) = b, F(1) = a, F(n) = F(n-1) F(n-2)
    degrees = _tokens(*(repr(0.8 if c == "a" else 0.5) for c in text))
    return degrees + (_tokens(text) if fmt == "text" else _tokens(*text))


def _reference_run_word() -> str:
    prev, cur = "1", "10"
    for _ in range(20):
        prev, cur = cur, cur + prev
    return cur


# (argv, expected tokens for a format), or a callable check for verify and
# the integral model, whose outputs are checked by value.
CLI_EXAMPLES = (
    (("generate", "--n", "6"), lambda fmt: _tokens(reference_prefix(8))),
    (("generate", "--length", "34"), lambda fmt: _tokens(reference_prefix(34))),
    (("generate", "--n", "22", "--seeds", "1,10"), lambda fmt: _tokens(_reference_run_word())),
    (("density", "--pattern", "11", "--prefix", "1000"), lambda fmt: _tokens(0, 1000, 0.0)),
    (("density", "--a", "0", "--b", "inf", "--k", "1", "--tau", "1"), "integral"),
    (("curve", "--n-max", "100"), _expect_ratio_curve),
    (("curve", "--kind", "letter", "--letter", "0", "--n-max", "100"), _expect_letter_curve),
    (("palindromes", "--pattern", "abaa"), _expect_pal_report),
    (("palindromes", "--prefix", "1000", "--length", "3"), _expect_pal_table),
    (("scattered", "--pattern", "abaa"),
     lambda fmt: _tokens("abaa", oracle.brute_sp_count(words.Word(AB, "abaa")))),
    (("squarefree", "--length", "5"), _expect_square_free),
    (("squarefree", "--n-max", "12"),
     lambda fmt: _tokens(*(x for n in range(1, 13) for x in (n, SQUARE_FREE_COUNTS[n])))),
    (("catalan", "--n-max", "10"), _expect_catalan),
    (("fuzzy", "--n", "4", "--mu-a", "0.8", "--mu-b", "0.5"), _expect_fuzzy),
    (("reproduce-3-2",), lambda fmt: _tokens(17711, 10946, 28657)),
    (("verify",), "verify"),
)

_NUMBER = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+|-?inf|nan")


def cli_output_problem(index: int, fmt: str, output: str) -> str | None:
    """Check one CLI output (stdout or the --out file) of example `index`."""
    expect = CLI_EXAMPLES[index][1]
    if expect == "verify":
        if "FAIL" in output or not re.search(r"^verify: (\d+)/\1 suites ok$", output, re.M):
            return "verify did not report every suite ok"
        return None
    if expect == "integral":
        # k = 1, tau = 1 on [0, inf): the integral of exp(-2x) is 1/2.
        values = [float(x) for x in _NUMBER.findall(output)[:2]]
        if len(values) != 2 or any(abs(v - 0.5) > 1e-9 * 0.5 for v in values):
            return f"integral model gave {values}, expected both routes at 0.5"
        return None
    missing = expect(fmt) - Counter(_TOKEN.findall(output))
    if missing:
        return f"output lacks {sorted(missing)[:5]}"
    return None


def _cli_problem(op: Op, code, stdout: str, out_path: Path | None) -> str | None:
    index, fmt, _ = op.args
    if code != 0:
        return f"exit code {code}"
    if out_path is not None:
        if stdout:
            return "--out also wrote to stdout"
        stdout = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    return cli_output_problem(index, fmt, stdout)
