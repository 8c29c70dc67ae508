"""One workload process: set up, run the closed loop, report raw results.

Started by run.py as ``python worker.py WORKLOAD SEED SECONDS TRACE
[--setup-only]``.  It imports fibword from the checkout's ``src``, builds
the seeded inputs, prints ``ready`` and then, unless ``--setup-only``,
runs the ops one at a time and prints one JSON line with the raw results.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy  # noqa: E402
import workloads  # noqa: E402  (imports fibword from src)
from tracing import NullTracer, Tracer, summarize  # noqa: E402

#: Spawns per probe of interpreter start and of the fibword.cli import.
PROBE_RUNS = 5


def _malloc_trim():
    """Hand free heap back to the OS (glibc only).

    Called between ops, so that heap fragments left by one op do not add
    to the peak RSS of the next: each op stands for one call a user would
    make from a fresh process.  Without it, peak_rss_mb varied by 10% with
    the seeded op order."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass


def run_rounds(rounds, ctx):
    """Run the ops one at a time, each checked after its timed region.
    Returns one (kind, latency, error) record per op and the time spent
    checking."""
    records, check_s = [], 0.0
    for ops in rounds:
        for op in ops:
            ctx.tracer.begin_op(len(records), op.label)
            t0 = time.perf_counter()
            try:
                result, error = workloads.execute(op, ctx), None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if error is None:
                c0 = time.perf_counter()
                try:
                    error = workloads.check(op, result)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
                check_s += time.perf_counter() - c0
            del result
            _malloc_trim()
            records.append((op.label, latency, error))
    return records, check_s


def prefix_repeat_share(rounds) -> float:
    """Share of prefix-building ops whose length an earlier op used."""
    seen, repeats, total = set(), 0, 0
    for op in itertools.chain.from_iterable(rounds):
        if op.prefix_len:
            total += 1
            repeats += op.prefix_len in seen
            seen.add(op.prefix_len)
    return repeats / total if total else 0.0


def probe(argv, env) -> float:
    """Median wall time of running `argv` to completion."""
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def write_spans(path: Path, spans) -> None:
    rows = [[s.name, s.start, s.end, s.parent, s.op, s.op_kind, s.counts] for s in spans]
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "op_kind", "counts"],
                                "spans": rows}))


def measure(workload: str, seed: int, trace: bool, rounds, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ctx = workloads.Context(NullTracer(), tmp=tmp, env=env)
    if not trace:
        t0 = time.perf_counter()
        records, check_s = run_rounds(rounds, ctx)
        wall_s = time.perf_counter() - t0
        # The CLI session's workload runs in its child processes.
        who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
        return {"records": records, "check_s": check_s, "rounds": len(rounds), "wall_s": wall_s,
                "peak_rss_kb": resource.getrusage(who).ru_maxrss}

    # Spans need in-process calls, so the CLI session replays its commands
    # through cli.main here.  The same rounds run untraced, then traced:
    # the ratio of their op times is the tracing overhead.  The planned
    # rounds are halved between the two passes, so that a traced run takes
    # about as long as an untraced one.  The traced census that follows
    # touches every layer, so no per-layer metric is left unmeasured.
    ctx.cli_mode = "inprocess"
    report = {
        "interpreter_s": probe([sys.executable, "-c", "pass"], env),
        "import_s": probe([sys.executable, "-c", "import fibword.cli"], env),
    }
    rounds = rounds[: (len(rounds) + 1) // 2]
    untraced, _ = run_rounds(rounds, ctx)
    tracer = ctx.tracer = Tracer()
    tracer.install()
    try:
        records, check_s = run_rounds(rounds, ctx)
        census, census_check_s = run_rounds([workloads.census()], ctx)
    finally:
        tracer.uninstall()
    write_spans(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json", tracer.spans)
    report.update(
        records=untraced + records + census, check_s=check_s + census_check_s, rounds=len(rounds),
        layers=summarize(tracer.spans), prefix_repeat_share=prefix_repeat_share(rounds),
        tracing_overhead=sum(r[1] for r in untraced) / sum(r[1] for r in records),
    )
    return report


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    rounds = workloads.plan(workload, seed, workloads.rounds_for(workload, seconds))
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        report = measure(workload, seed, trace, rounds, Path(tmp))
    report["versions"] = {"python": platform.python_version(), "scipy": scipy.__version__}
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
