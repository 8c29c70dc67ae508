"""Command-line front end.

Every command returns one Report; main renders it as text, CSV, or JSON to
stdout or to --out.  Output is deterministic.  Exit codes: 0 success,
2 usage error, 3 domain/guard error or an --out path that cannot be written,
1 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import verify
from .catalan import catalan_table
from .density import (
    DensitySample, IntegralParams, density, integral_density, letter_density_curve, ratio_curve
)
from .fibonacci import DEFAULT_SEEDS, REFERENCE_SEEDS, FibSeeds, fib_word, infinite_prefix
from .fuzzy import fuzzy_fib_word, word_membership
from .palindromes import pal_density_table, palindrome_report, sp_count
from .squarefree import brandenburg_table, enumerate_square_free
from .words import AB, ABC, BINARY, Alphabet, Word


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


@dataclass(frozen=True)
class Report:
    """One command's output in every format, and its exit code.  ``payload``
    is the JSON value (a dict prints compact, a list with indent 2); ``csv``
    and ``text`` are lines.  A form that is None prints the text lines."""

    payload: dict | list | None
    csv: list[str] | None
    text: list[str]
    code: int = 0

    def render(self, fmt: str) -> str:
        if fmt == "json" and self.payload is not None:
            indent = 2 if isinstance(self.payload, list) else None
            return json.dumps(self.payload, indent=indent) + "\n"
        lines = self.csv if fmt == "csv" and self.csv is not None else self.text
        return "\n".join(lines) + "\n"


def _parse_word(text: str) -> Word:
    chars = set(text)
    for alphabet in (BINARY, AB, ABC):
        if chars <= set(alphabet.symbols):
            return Word(alphabet, text)
    return Word(Alphabet(sorted(chars)), text)


def _parse_seeds(raw: str) -> FibSeeds:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError("--seeds expects two comma-separated words, e.g. 1,10")
    return FibSeeds(Word(BINARY, parts[0]), Word(BINARY, parts[1]))


def _count(sample: DensitySample) -> int:
    # Occurrences behind a density sample: value = count / n exactly.
    return int(sample.value * sample.n)


def _cmd_generate(args: argparse.Namespace) -> Report:
    if (args.n is None) == (args.length is None):
        raise UsageError("generate needs exactly one of --n or --length")
    if args.n is not None:
        seeds = _parse_seeds(args.seeds) if args.seeds else DEFAULT_SEEDS
        word = fib_word(args.n, seeds)
    else:
        word = infinite_prefix(args.length)
    return Report({"word": word.text, "length": len(word)}, ["word", word.text], [word.text])


def _cmd_density(args: argparse.Namespace) -> Report:
    integral_flags = (args.a, args.b, args.k, args.tau)
    if args.pattern is not None:
        if any(v is not None for v in integral_flags):
            raise UsageError("choose either --pattern/--prefix or --a/--b/--k/--tau")
        if args.prefix is None:
            raise UsageError("--pattern needs --prefix")
        pattern, n = Word(BINARY, args.pattern), args.prefix
        sample = density(pattern, n)
        count, dens = _count(sample), sample.value_real
        return Report(
            {"count": count, "n": n, "density": dens},
            ["pattern,count,n,density", f"{pattern.text},{count},{n},{dens!r}"],
            [f"pattern: {pattern.text}", f"n: {n}", f"count: {count}", f"density: {dens!r}"],
        )
    if any(v is None for v in integral_flags):
        raise UsageError("density needs --pattern/--prefix or all of --a/--b/--k/--tau")
    values = asdict(integral_density(IntegralParams(a=args.a, b=args.b, k=args.k, tau=args.tau)))
    return Report(
        values,
        [",".join(values), ",".join(repr(v) for v in values.values())],
        [f"{name}: {v!r}" for name, v in values.items()],
    )


def _cmd_curve(args: argparse.Namespace) -> Report:
    if args.kind == "ratio":
        samples = ratio_curve(args.n_max)
    else:
        samples = letter_density_curve(args.letter, args.n_max)
    return Report(
        [
            {"n": s.n, "numerator": s.value.numerator, "denominator": s.value.denominator,
             "value": s.value_real}
            for s in samples
        ],
        ["n,value"] + [f"{s.n},{s.value_real!r}" for s in samples],
        [f"{s.n} {s.value} {s.value_real!r}" for s in samples],
    )


def _cmd_palindromes(args: argparse.Namespace) -> Report:
    if (args.pattern is None) == (args.prefix is None):
        raise UsageError("palindromes needs --pattern or (--prefix and --length)")
    if args.pattern is not None:
        r = palindrome_report(_parse_word(args.pattern))
        word, factors = r.word.text, [f.text for f in r.pal_factors]
        return Report(
            {"word": word, "pal_factors": factors, "p_count": r.p_count, "sp_count": r.sp_count},
            ["factor", *(factors or [""])],  # no factors still prints one empty row
            [f"word: {word}", f"pal_factors: {' '.join(factors)}",
             f"p_count: {r.p_count}", f"sp_count: {r.sp_count}"],
        )
    if args.length is None:
        raise UsageError("--prefix needs --length")
    table = pal_density_table(args.prefix, args.length)
    rows = [(w.text, _count(s), s.n, s.value_real) for w, s in table.items()]
    return Report(
        [{"palindrome": p, "count": c, "n": n, "density": d} for p, c, n, d in rows],
        ["palindrome,count,n,density"] + [f"{p},{c},{n},{d!r}" for p, c, n, d in rows],
        [f"{p} count={c} n={n} density={d!r}" for p, c, n, d in rows],
    )


def _cmd_scattered(args: argparse.Namespace) -> Report:
    word = _parse_word(args.pattern)
    count = sp_count(word)
    return Report(
        {"word": word.text, "sp_count": count},
        ["word,sp_count", f"{word.text},{count}"],
        [f"word: {word.text}", f"sp_count: {count}"],
    )


def _cmd_squarefree(args: argparse.Namespace) -> Report:
    if (args.length is None) == (args.n_max is None):
        raise UsageError("squarefree needs exactly one of --length or --n-max")
    if args.length is not None:
        texts = [w.text for w in enumerate_square_free(args.alphabet, args.length)]
        return Report(
            {"n": args.length, "count": len(texts), "words": texts},
            ["word", *texts],
            # the empty word (--length 0) gets no text line of its own
            [t for t in texts if t] + [f"count: {len(texts)}"],
        )
    rows = brandenburg_table(args.n_max)
    csv, text = ["n,s_n,lower,upper,lower_holds,upper_holds"], []
    for r in rows:
        lo, up = str(r.lower_holds).lower(), str(r.upper_holds).lower()
        csv.append(f"{r.n},{r.s_n},{r.lower!r},{r.upper!r},{lo},{up}")
        text.append(
            f"n={r.n} s_n={r.s_n} lower={r.lower:.4f} upper={r.upper:.4f} "
            f"lower_holds={lo} upper_holds={up}"
        )
    return Report([asdict(r) for r in rows], csv, text)


def _cmd_catalan(args: argparse.Namespace) -> Report:
    records = catalan_table(args.n_max)
    return Report(
        [
            {"n": r.n, "c_n": r.c_n, "table_expr": r.table_expr, "g_numerator": r.g_n.numerator,
             "g_denominator": r.g_n.denominator, "g": float(r.g_n)}
            for r in records
        ],
        ["n,c_n,table_expr,g_n"] + [f"{r.n},{r.c_n},{r.table_expr},{r.g_n}" for r in records],
        [
            f"n={r.n} c_n={r.c_n} table_expr={r.table_expr} g_n={r.g_n} ({float(r.g_n)!r})"
            for r in records
        ],
    )


def _cmd_fuzzy(args: argparse.Namespace) -> Report:
    fw = fuzzy_fib_word(args.n, args.mu_a, args.mu_b)
    pairs = list(zip(fw.word.text, fw.memberships))
    degrees = " ".join(repr(m) for m in fw.memberships)
    overall = word_membership(fw)
    return Report(
        [{"symbol": s, "membership": m} for s, m in pairs],
        ["symbol,membership"] + [f"{s},{m!r}" for s, m in pairs],
        [f"word: {fw.word.text}", f"memberships: {degrees}", f"membership: {overall!r}"],
    )


def _converged_ratio(tol: float = 1e-10) -> float:
    # Walk consecutive-Fibonacci ratios until they stop moving.
    a, b = 1, 1
    prev = a / b
    while True:
        a, b = b, a + b
        cur = a / b
        if abs(cur - prev) < tol:
            return cur
        prev = cur


def _cmd_reproduce(args: argparse.Namespace) -> Report:
    word = fib_word(22, REFERENCE_SEEDS)
    ones = word.text.count("1")
    zeros = word.text.count("0")
    ratio = _converged_ratio()
    return Report(
        {"ones": ones, "zeros": zeros, "length": len(word), "ratio": ratio},
        ["ones,zeros,length,ratio", f"{ones},{zeros},{len(word)},{ratio!r}"],
        [f"ones: {ones}", f"zeros: {zeros}", f"length: {len(word)}", f"ratio: {ratio:.10f}"],
    )


def _cmd_verify(args: argparse.Namespace) -> Report:
    results = [(name, *suite()) for name, suite in verify.SUITES]
    lines = [f"verify {name}: {'ok' if ok else 'FAIL'} ({detail})" for name, ok, detail in results]
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"verify: {len(results) - failed}/{len(results)} suites ok")
    return Report(None, None, lines, 1 if failed else 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibword",
        description="Fibonacci words, subword densities, palindromes, and square-free words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, handler) -> None:
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--out", default=None, help="write the report to this path")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("generate", help="emit a word of the recurrence or a prefix of the infinite word")
    sp.add_argument("--n", type=int, help="index of the recurrence word")
    sp.add_argument("--seeds", help="two comma-separated seed words, e.g. 1,10")
    sp.add_argument("--length", type=int, help="emit this prefix of the infinite word instead")
    common(sp, _cmd_generate)

    sp = sub.add_parser("density", help="pattern density in a prefix, or the integral model")
    sp.add_argument("--pattern", help="binary pattern to count")
    sp.add_argument("--prefix", type=int, help="prefix length")
    sp.add_argument("--a", type=float, help="integral lower bound")
    sp.add_argument("--b", type=float, help="integral upper bound (inf allowed)")
    sp.add_argument("--k", type=float, help="integral power exponent")
    sp.add_argument("--tau", type=float, help="integral decay constant")
    common(sp, _cmd_density)

    sp = sub.add_parser("curve", help="ratio or letter-density series (figure data)")
    sp.add_argument("--kind", choices=("ratio", "letter"), default="ratio")
    sp.add_argument("--letter", choices=("0", "1"), default="0")
    sp.add_argument("--n-max", type=int, required=True)
    common(sp, _cmd_curve)

    sp = sub.add_parser("palindromes", help="palindromic factor report or density table")
    sp.add_argument("--pattern", help="word to analyse")
    sp.add_argument("--prefix", type=int, help="prefix length for the density table")
    sp.add_argument("--length", type=int, help="palindrome length for the density table")
    common(sp, _cmd_palindromes)

    sp = sub.add_parser("scattered", help="distinct palindromic subsequence count")
    sp.add_argument("--pattern", required=True, help="word to analyse")
    common(sp, _cmd_scattered)

    sp = sub.add_parser("squarefree", help="square-free enumeration or growth-bound table")
    sp.add_argument("--length", type=int, help="enumerate words of this length")
    sp.add_argument("--alphabet", type=int, choices=(2, 3), default=3)
    sp.add_argument("--n-max", type=int, help="emit the growth-bound table up to n")
    common(sp, _cmd_squarefree)

    sp = sub.add_parser("catalan", help="exact Catalan rows: n, C_n, C_n - 1, g(n)")
    sp.add_argument("--n-max", type=int, required=True)
    common(sp, _cmd_catalan)

    sp = sub.add_parser("fuzzy", help="fuzzy word with per-letter membership degrees")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mu-a", type=float, required=True)
    sp.add_argument("--mu-b", type=float, required=True)
    common(sp, _cmd_fuzzy)

    sp = sub.add_parser("reproduce-3-2", help="regenerate the published reference run (seeds 1,10, n=22)")
    common(sp, _cmd_reproduce)

    sp = sub.add_parser("verify", help="run every differential oracle suite")
    common(sp, _cmd_verify)

    return parser


def _emit(text: str, out_path: str | None) -> bool:
    """Write text to out_path (stdout without one); False if it cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return True
    try:
        Path(out_path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not _emit(report.render(args.format), args.out):
        return 3
    return report.code


if __name__ == "__main__":
    sys.exit(main())
