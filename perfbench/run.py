"""The fibword benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload prefix-density --seed 1 --seconds 20 --trace 0

The workload runs in a fresh child process (worker.py) that imports the
checkout's ``src/fibword``; nothing needs to be installed.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics (see README.md).  A summary goes to stdout, and the
last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Full results, with the sample counts and the provenance, are also written
to ``.perfbench/results-<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-session", "prefix-density", "palindromes-squarefree")

#: Set-ups measured per untraced run; setup_s is their median.
SETUP_RUNS = 5

#: A worker still running after this many seconds is killed.
WORKER_TIMEOUT_S = 170

# Per-layer metrics: (name, unit, span name, field of tracing.summarize).
# busy_s is the summed span time; "<count>_per_s" is that count over busy_s.
_LAYER_METRICS = (
    ("cli.main.busy_s", "s", "cli.main", "busy_s"),
    ("cli.output_bytes", "count", "cli.main", "output_bytes"),
    ("fibonacci.infinite_prefix.busy_s", "s", "fibonacci.infinite_prefix", "busy_s"),
    ("fibonacci.infinite_prefix.symbols_per_s", "1/s", "fibonacci.infinite_prefix", "size_per_s"),
    ("fibonacci.infinite_prefix.scaling_exp", "1", "fibonacci.infinite_prefix", "scaling_exp"),
    ("fibonacci.fib_word.busy_s", "s", "fibonacci.fib_word", "busy_s"),
    ("fibonacci.fib_word.symbols_per_s", "1/s", "fibonacci.fib_word", "size_per_s"),
    ("words.Word.busy_s", "s", "words.Word", "busy_s"),
    ("words.Word.symbols_per_s", "1/s", "words.Word", "symbols_per_s"),
    ("words.distinct_factors.busy_s", "s", "words.distinct_factors", "busy_s"),
    ("density.count_occurrences.busy_s", "s", "density.count_occurrences", "busy_s"),
    ("density.count_occurrences.symbols_per_s", "1/s", "density.count_occurrences", "size_per_s"),
    ("density.count_occurrences.scaling_exp", "1", "density.count_occurrences", "scaling_exp"),
    ("density.density.busy_s", "s", "density.density", "busy_s"),
    ("density.letter_density_curve.busy_s", "s", "density.letter_density_curve", "busy_s"),
    ("density.letter_density_curve.samples_per_s", "1/s", "density.letter_density_curve", "size_per_s"),
    ("density.ratio_curve.busy_s", "s", "density.ratio_curve", "busy_s"),
    ("density.integral_density.busy_s", "s", "density.integral_density", "busy_s"),
    ("palindromes.pal_factors.busy_s", "s", "palindromes.pal_factors", "busy_s"),
    ("palindromes.pal_factors.symbols_in", "count", "palindromes.pal_factors", "size"),
    ("palindromes.pal_factors.factors_out", "count", "palindromes.pal_factors", "factors_out"),
    ("palindromes.pal_factors.chars_out", "count", "palindromes.pal_factors", "chars_out"),
    ("palindromes.pal_factors.scaling_exp", "1", "palindromes.pal_factors", "scaling_exp"),
    ("palindromes.sp_count.busy_s", "s", "palindromes.sp_count", "busy_s"),
    ("palindromes.sp_count.cells", "count", "palindromes.sp_count", "cells"),
    ("palindromes.sp_count.scaling_exp", "1", "palindromes.sp_count", "scaling_exp"),
    ("palindromes.pal_density_table.busy_s", "s", "palindromes.pal_density_table", "busy_s"),
    ("squarefree.enumerate_square_free.busy_s", "s", "squarefree.enumerate_square_free", "busy_s"),
    ("squarefree.enumerate_square_free.words_out", "count", "squarefree.enumerate_square_free", "words_out"),
    ("squarefree.brandenburg_table.busy_s", "s", "squarefree.brandenburg_table", "busy_s"),
    ("squarefree.has_overlap.busy_s", "s", "squarefree.has_overlap", "busy_s"),
    ("squarefree.delta_codec.busy_s", "s", "squarefree.delta_codec", "busy_s"),
    ("catalan.catalan_table.busy_s", "s", "catalan.catalan_table", "busy_s"),
    ("fuzzy.fuzzy_fib_word.busy_s", "s", "fuzzy.fuzzy_fib_word", "busy_s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one fibword benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"
    return ref


class Worker:
    """A worker process.  Its set-up time runs from spawn to its "ready"
    line.  A watchdog kills it after WORKER_TIMEOUT_S, and close() always
    waits for it."""

    def __init__(self, args, setup_only: bool):
        argv = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
                repr(args.seconds), str(args.trace)] + (["--setup-only"] if setup_only else [])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            raise RuntimeError("worker failed during set-up")

    def result(self) -> dict:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    samples beyond it: the 11th largest latency.  With fewer than 20
    samples this falls back to the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(report: dict, setups: list[float]) -> dict:
    latencies = [r[1] for r in report["records"]]
    n = len(latencies)
    tail_s, tail_p = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ops_per_s": (n / sum(latencies), "1/s", f"n={n} ops in {report['rounds']} rounds"),
        "op_p50_s": (statistics.median(latencies), "s", f"n={n}"),
        "op_tail_s": (tail_s, "s", f"p{tail_p:.1f}, 11th largest of n={n}"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB", "getrusage ru_maxrss"),
    }
    return metrics


def per_layer(report: dict) -> dict:
    layers = report["layers"]
    metrics = {
        "cli.interpreter_s": (report["interpreter_s"], "s", "median of python -c pass"),
        "cli.import_s": (report["import_s"], "s", "median of python -c 'import fibword.cli'"),
    }
    for name, unit, span, field in _LAYER_METRICS:
        entry = layers.get(span, {})
        if field.endswith("_per_s"):
            count = entry.get(field.removesuffix("_per_s"), 0)
            value = count / entry["busy_s"] if entry.get("busy_s") else 0.0
        else:
            value = entry.get(field, 0)
        metrics[name] = (value, unit, f"calls={entry.get('calls', 0)}")
    metrics["oracle.check_s"] = (report["check_s"], "s", "output checks, traced pass and census")
    metrics["tracing_overhead"] = (report["tracing_overhead"], "1", "traced / untraced ops_per_s")
    metrics["prefix_repeat_share"] = (report["prefix_repeat_share"], "1", "prefix lengths seen before")
    return metrics


def op_mix(records) -> dict:
    """Per op kind: count, median and largest latency."""
    by_kind: dict[str, list[float]] = {}
    for kind, latency, _ in records:
        by_kind.setdefault(kind, []).append(latency)
    return {k: {"n": len(v), "p50_s": statistics.median(v), "max_s": max(v)}
            for k, v in sorted(by_kind.items())}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fibword" / "__init__.py").is_file():
        print(f"error: no fibword sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            worker = Worker(args, setup_only=True)
            setups.append(worker.setup_s)
            worker.close()
    worker = Worker(args, setup_only=False)
    try:
        setups.append(worker.setup_s)
        report = worker.result()
    finally:
        worker.close()

    metrics = per_layer(report) if args.trace else end_to_end(report, setups)
    errors = [r for r in report["records"] if r[2]]
    attempted, failed = len(report["records"]), len(errors)
    provenance = {"commit": git_commit(), **report["versions"], "nproc": os.cpu_count()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit:6s} {note}")
    print(f"  {'error_rate':44s} {failed / attempted:>14.6g} {'1':6s} {failed}/{attempted} ops failed")
    for kind, _, error in errors[:10]:
        print(f"    failed {kind}: {error}")
    print("  provenance " + json.dumps(provenance))

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance, "attempted": attempted, "failed": failed,
        "rounds": report["rounds"], "wall_s": report.get("wall_s"),
        "metrics": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in metrics.items()},
        "ops": op_mix(report["records"]),
        "layers": report.get("layers"),
    }
    out = ROOT / ".perfbench" / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
