"""Spans around the calls the benchmark makes into each fibword module.

Tracing is installed from outside the library: each public function named
in LAYERS is replaced, in every loaded ``fibword`` module that holds a
reference to it, by a wrapper that records a span.  Calls made inside the
library through those module globals (``density`` calling
``infinite_prefix``, ``cli`` calling ``catalan_table``) are therefore
recorded too, nested under their caller.  ``uninstall`` puts the original
functions back.

A span records its name, start, end, its parent span and the benchmark op
that caused it, plus the sizes needed for throughput figures.  Spans stay
in memory until the benchmark writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time
from dataclasses import dataclass, field

# Size and output counts of one call: (args, result) -> {count name: value}.
# "size" is the input size used for throughput and the scaling exponent.


def _len_result(args, result):
    return {"size": len(result)}


def _len_arg(i):
    return lambda args, result: {"size": len(args[i])}


def _int_arg(args, result):
    return {"size": args[0]}


def _pal_counts(args, result):
    return {
        "size": len(args[0]),
        "factors_out": result.p_count,
        "chars_out": sum(len(f) for f in result.pal_factors),
    }


def _sp_counts(args, result):
    n = len(args[0])
    return {"size": n, "cells": n * (n + 1) // 2}


def _sf_counts(args, result):
    return {"size": args[1], "words_out": len(result)}


# (module, function, span name, counts).  delta_encode and delta_decode
# share one span name: the metric is the codec round trip.
LAYERS = (
    ("fibonacci", "infinite_prefix", "fibonacci.infinite_prefix", _int_arg),
    ("fibonacci", "fib_word", "fibonacci.fib_word", _len_result),
    ("words", "distinct_factors", "words.distinct_factors", _len_arg(0)),
    ("density", "count_occurrences", "density.count_occurrences", _len_arg(1)),
    ("density", "density", "density.density", lambda a, r: {"size": a[1]}),
    ("density", "letter_density_curve", "density.letter_density_curve", lambda a, r: {"size": a[1]}),
    ("density", "ratio_curve", "density.ratio_curve", _int_arg),
    ("density", "integral_density", "density.integral_density", lambda a, r: {"size": 1}),
    ("palindromes", "pal_factors", "palindromes.pal_factors", _pal_counts),
    ("palindromes", "sp_count", "palindromes.sp_count", _sp_counts),
    ("palindromes", "pal_density_table", "palindromes.pal_density_table", _int_arg),
    ("squarefree", "enumerate_square_free", "squarefree.enumerate_square_free", _sf_counts),
    ("squarefree", "brandenburg_table", "squarefree.brandenburg_table", _int_arg),
    ("squarefree", "has_overlap", "squarefree.has_overlap", _len_arg(0)),
    ("squarefree", "delta_encode", "squarefree.delta_codec", _len_arg(0)),
    ("squarefree", "delta_decode", "squarefree.delta_codec", _len_arg(0)),
    ("catalan", "catalan_table", "catalan.catalan_table", _int_arg),
    ("fuzzy", "fuzzy_fib_word", "fuzzy.fuzzy_fib_word", _len_result),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at top level
    op: int = -1  # index of the benchmark op that caused it
    op_kind: str = ""
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0  # time covered by direct children

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: a span is a no-op context."""

    def span(self, name, **counts):
        return contextlib.nullcontext(counts)

    def begin_op(self, index, kind):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._op_kind = ""
        self._patched: list[tuple[object, str, object]] = []

    def begin_op(self, index: int, kind: str) -> None:
        self._op, self._op_kind = index, kind

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, op=self._op, op_kind=self._op_kind)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Span around a block; the block may add counts to the yielded
        dict."""
        index = self._open(name)
        try:
            yield counts
        finally:
            self._close(index).counts = counts

    def _wrap(self, name, func, counter):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self._close(index)
            span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace each LAYERS function by a traced wrapper wherever a
        fibword module refers to it."""
        for module_name, func_name, span_name, counter in LAYERS:
            module = importlib.import_module(f"fibword.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(span_name, original, counter)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "fibword" or name.startswith("fibword.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patched.append((loaded, attr, original))
                        setattr(loaded, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def scaling_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy (summed span time), self time, summed
    counts, and the scaling exponent over the op kind that spent the most
    time in it."""
    out: dict[str, dict] = {}
    by_kind: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += span.duration
        entry["self_s"] += span.duration - span.child_s
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
        if "size" in span.counts:
            by_kind.setdefault(span.name, {}).setdefault(span.op_kind, []).append(
                (span.counts["size"], span.duration)
            )
    for name, kinds in by_kind.items():
        points = max(kinds.values(), key=lambda pts: sum(t for _, t in pts))
        out[name]["scaling_exp"] = scaling_exponent(points)
    return out
