"""Command-line front end.

Every command returns one Report; main renders it as text, CSV, or JSON to
stdout or to --out.  Output is deterministic.  Exit codes: 0 success,
2 usage error, 3 domain/guard error, out of memory or output that cannot
be encoded or written, 1 verification mismatch.  Each command imports only the
modules it runs, and json only when JSON is rendered.  A flag outside the chosen
mode is a usage error: --seeds goes only with --n, --letter (default 0) only with
--kind letter (default ratio), and --alphabet (default 3) only with --length.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Iterator
from itertools import chain

from .words import BINARY, Alphabet, Word


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _cell(value: object) -> str:
    """One CSV cell: booleans as true/false, the rest by str (a float's str is its repr); a
    string holding a comma, quote, CR or LF is quoted with its quotes doubled (RFC 4180)."""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return ("true" if value else "false") if isinstance(value, bool) else str(value)


class Report:
    """One command's output and exit code; render builds only the form asked for.  ``payload``
    is the JSON value (a dict prints compact, rows as a list with indent 2), ``text`` the lines
    (by default a dict's ``name: value``), ``csv`` (header, rows), by default its keys and values."""

    def __init__(self, payload: dict | Iterable[dict] | None, text: Iterable[str] | None = None,
                 csv: tuple[Iterable, Iterable[Iterable]] | None = None, code: int = 0):
        self.payload, self.text, self.csv, self.code = payload, text, csv, code

    def render(self, fmt: str) -> str:
        if self.payload is None or fmt == "text":  # without a payload every format is text
            text = self.text if self.text is not None else (f"{k}: {v}" for k, v in self.payload.items())
            return "\n".join(text) + "\n"
        if fmt == "json":  # rows in indent=2's layout but {} (never given), by the C encoder
            import json
            if isinstance(self.payload, dict):
                return json.dumps(self.payload) + "\n"
            rows = map(json.JSONEncoder(separators=(",\n    ", ": ")).encode, self.payload)
            body = "\n  },\n  {\n    ".join(row[1:-1] for row in rows)
            return f"[\n  {{\n    {body}\n  }}\n]\n" if body else "[]\n"
        if self.csv is not None:
            header, rows = self.csv
        else:  # the payload's keys, then each row's values
            rows = iter([self.payload] if isinstance(self.payload, dict) else self.payload)
            header = next(rows)
            rows = chain([header.values()], (row.values() for row in rows))
        return "\n".join(",".join(map(_cell, row)) for row in chain([header], rows)) + "\n"


def _parse_word(text: str) -> Word:
    return Word(Alphabet(sorted(set(text)) or "a"), text)


def _cmd_generate(args: argparse.Namespace) -> Report:
    from .fibonacci import FibSeeds, fib_word, infinite_prefix
    if args.length is not None:
        word = infinite_prefix(args.length)
    elif args.seeds is None:
        word = fib_word(args.n)
    elif len(parts := args.seeds.split(",")) != 2:
        raise UsageError("--seeds expects two comma-separated words, e.g. 1,10")
    else:
        word = fib_word(args.n, FibSeeds(Word(BINARY, parts[0]), Word(BINARY, parts[1])))
    return Report({"word": word.text, "length": len(word)}, [word.text], (["word"], [[word.text]]))


def _cmd_density(args: argparse.Namespace) -> Report:
    from .density import IntegralParams, density, integral_density
    if args.pattern is not None:
        pattern, n = args.pattern, args.prefix
        s = density(Word(BINARY, pattern), n)
        return Report(
            {"count": s.count, "n": n, "density": s.value_real},
            [f"pattern: {pattern}", f"n: {n}", f"count: {s.count}", f"density: {s.value_real}"],
            (["pattern", "count", "n", "density"], [[pattern, s.count, n, s.value_real]]),
        )
    return Report(vars(integral_density(IntegralParams(a=args.a, b=args.b, k=args.k, tau=args.tau))))


def _cmd_curve(args: argparse.Namespace) -> Report:
    from .density import letter_density_curve, ratio_curve
    if args.kind == "ratio":
        samples = ratio_curve(args.n_max)
    else:
        samples = letter_density_curve(args.letter or "0", args.n_max)
    return Report(
        ({"n": s.n, "numerator": v.numerator, "denominator": v.denominator, "value": s.value_real}
         for s in samples for v in [s.value]),  # read once: .value builds a Fraction on each read
        (f"{s.n} {s.value} {s.value_real!r}" for s in samples),
        (["n", "value"], ((s.n, s.value_real) for s in samples)),
    )


def _cmd_palindromes(args: argparse.Namespace) -> Report:
    from .palindromes import pal_density_table, palindrome_report
    if args.pattern is not None:
        r = palindrome_report(_parse_word(args.pattern))
        word, factors = r.word.text, [f.text for f in r.pal_factors]
        return Report(
            {"word": word, "pal_factors": factors, "p_count": r.p_count, "sp_count": r.sp_count},
            [f"word: {word}", f"pal_factors: {' '.join(factors)}",
             f"p_count: {r.p_count}", f"sp_count: {r.sp_count}"],
            (["factor"], zip(factors or [""])),  # no factors still prints one empty row
        )
    table = pal_density_table(args.prefix, args.length).items()
    return Report(
        ({"palindrome": w.text, "count": s.count, "n": s.n, "density": s.value_real}
         for w, s in table),
        (f"{w.text} count={s.count} n={s.n} density={s.value_real!r}" for w, s in table),
    )


def _cmd_scattered(args: argparse.Namespace) -> Report:
    from .palindromes import sp_count
    return Report({"word": args.pattern, "sp_count": sp_count(_parse_word(args.pattern))})


def _cmd_squarefree(args: argparse.Namespace) -> Report:
    from .squarefree import brandenburg_table, enumerate_square_free
    if args.length is not None:
        texts = [w.text for w in enumerate_square_free(args.alphabet or 3, args.length)]
        return Report(
            {"n": args.length, "count": len(texts), "words": texts},
            # the empty word (--length 0) gets no text line of its own
            [t for t in texts if t] + [f"count: {len(texts)}"],
            (["word"], zip(texts)),
        )
    rows = brandenburg_table(args.n_max)
    return Report(
        (vars(r) for r in rows),
        [f"n={r.n} s_n={r.s_n} lower={r.lower:.4f} upper={r.upper:.4f} "
         f"lower_holds={_cell(r.lower_holds)} upper_holds={_cell(r.upper_holds)}" for r in rows],
    )


def _cmd_catalan(args: argparse.Namespace) -> Report:
    from .catalan import catalan_table
    records = catalan_table(args.n_max)
    return Report(
        ({"n": r.n, "c_n": r.c_n, "table_expr": r.table_expr, "g_numerator": r.g_n.numerator,
          "g_denominator": r.g_n.denominator, "g": float(r.g_n)} for r in records),
        (f"n={r.n} c_n={r.c_n} table_expr={r.table_expr} g_n={r.g_n} ({float(r.g_n)!r})" for r in records),
        (["n", "c_n", "table_expr", "g_n"], ((r.n, r.c_n, r.table_expr, r.g_n) for r in records)),
    )


def _cmd_fuzzy(args: argparse.Namespace) -> Report:
    from .fuzzy import fuzzy_fib_word, word_membership
    fw = fuzzy_fib_word(args.n, args.mu_a, args.mu_b)
    def text() -> Iterator[str]:  # run only for --format text: at --n 30 the join is 1.35*10**6 reprs
        yield f"word: {fw.word.text}"
        yield f"memberships: {' '.join(map(repr, fw.memberships))}"
        yield f"membership: {word_membership(fw)}"
    return Report(({"symbol": s, "membership": m} for s, m in zip(fw.word.text, fw.memberships)), text())


def _cmd_reproduce(args: argparse.Namespace) -> Report:
    from .density import ratio_curve
    from .fibonacci import REFERENCE_SEEDS, fib_word
    word = fib_word(22, REFERENCE_SEEDS)
    ones = word.text.count("1")
    zeros = word.text.count("0")
    reals = [s.value_real for s in ratio_curve(60)]
    # the first consecutive-Fibonacci ratio within 1e-10 of the one before it
    ratio = next(cur for prev, cur in zip(reals, reals[1:]) if abs(cur - prev) < 1e-10)
    return Report(
        {"ones": ones, "zeros": zeros, "length": len(word), "ratio": ratio},
        [f"ones: {ones}", f"zeros: {zeros}", f"length: {len(word)}", f"ratio: {ratio:.10f}"],
    )


def _cmd_verify(args: argparse.Namespace) -> Report:
    from . import verify  # the suites and the oracle load only for this command
    results = verify.run()
    lines = [f"verify {name}: {'ok' if ok else 'FAIL'} ({detail})" for name, ok, detail in results]
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"verify: {len(results) - failed}/{len(results)} suites ok")
    return Report(None, lines, code=1 if failed else 0)


def _check_mode(args: argparse.Namespace) -> None:
    """Refuse argv unless it gives exactly one of its command's modes, the one whose needed flags
    are all given, and no flag outside it.  Modes name flags by dest; [f] may be given, f=v needs v."""
    def given(flag: str) -> bool:
        name, _, value = flag.strip("[]").partition("=")
        return getattr(args, name) == value if value else getattr(args, name) is not None

    def show(flags: Iterable[str]) -> str:
        return "/".join("--" + f.strip("[]").replace("_", "-").replace("=", " ") for f in flags)

    modes = [mode.split() for mode in args.modes]
    needs = [[f for f in mode if f[0] != "["] for mode in modes]
    chosen = [i for i, flags in enumerate(needs) if all(map(given, flags))]
    begun = [flags for flags in needs if any(map(given, flags))]
    if begun and not chosen:
        raise UsageError(f"{show(filter(given, begun[0]))} needs {show(f for f in begun[0] if not given(f))}")
    if len(chosen) != 1:
        raise UsageError(f"{args.command} needs exactly one of {' or '.join(map(show, needs))}")
    for flag in chain(*modes):
        if flag not in modes[chosen[0]] and given(flag):
            raise UsageError(f"{show([flag])} does not go with {show(needs[chosen[0]])}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibword",
        description="Fibonacci words, subword densities, palindromes, and square-free words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, handler, *modes: str) -> None:
        sp.add_argument("--format", choices=("text", "csv", "json"), default="text")
        sp.add_argument("--out", default=None, help="write the report to this path")
        sp.set_defaults(handler=handler, modes=modes or [""])  # no modes: one that needs no flag

    sp = sub.add_parser("generate", help="emit a word of the recurrence or a prefix of the infinite word")
    sp.add_argument("--n", type=int, help="index of the recurrence word")
    sp.add_argument("--seeds", help="two comma-separated seed words, e.g. 1,10")
    sp.add_argument("--length", type=int, help="emit this prefix of the infinite word instead")
    common(sp, _cmd_generate, "n [seeds]", "length")

    sp = sub.add_parser("density", help="pattern density in a prefix, or the integral model")
    sp.add_argument("--pattern", help="binary pattern to count")
    sp.add_argument("--prefix", type=int, help="prefix length")
    sp.add_argument("--a", type=float, help="integral lower bound")
    sp.add_argument("--b", type=float, help="integral upper bound (inf allowed)")
    sp.add_argument("--k", type=float, help="integral power exponent")
    sp.add_argument("--tau", type=float, help="integral decay constant")
    common(sp, _cmd_density, "pattern prefix", "a b k tau")

    sp = sub.add_parser("curve", help="ratio or letter-density series (figure data)")
    sp.add_argument("--kind", choices=("ratio", "letter"), default="ratio", help="the series (default ratio)")
    sp.add_argument("--letter", choices=("0", "1"), help="the letter of --kind letter (default 0)")
    sp.add_argument("--n-max", type=int, required=True)
    common(sp, _cmd_curve, "kind=ratio", "kind=letter [letter]")

    sp = sub.add_parser("palindromes", help="palindromic factor report or density table")
    sp.add_argument("--pattern", help="word to analyse")
    sp.add_argument("--prefix", type=int, help="prefix length for the density table")
    sp.add_argument("--length", type=int, help="palindrome length for the density table")
    common(sp, _cmd_palindromes, "pattern", "prefix length")

    sp = sub.add_parser("scattered", help="distinct palindromic subsequence count")
    sp.add_argument("--pattern", required=True, help="word to analyse")
    common(sp, _cmd_scattered)

    sp = sub.add_parser("squarefree", help="square-free enumeration or growth-bound table")
    sp.add_argument("--length", type=int, help="enumerate words of this length")
    sp.add_argument("--alphabet", type=int, choices=(2, 3), help="alphabet size for --length (default 3)")
    sp.add_argument("--n-max", type=int, help="emit the growth-bound table up to n")
    common(sp, _cmd_squarefree, "length [alphabet]", "n_max")

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_mode(args)
        report = args.handler(args)
        text = report.render(args.format)
        if args.out:  # encoded first, so text that cannot be encoded leaves no file
            data = text.encode("utf-8")
            with open(args.out, "wb") as out:
                out.write(data)
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a UnicodeEncodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 3
    return report.code


if __name__ == "__main__":
    sys.exit(main())
