"""Tests of the benchmark itself: seeded plans, output checks, metric names.

Run from the root of the repository:

    python -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import worker  # puts the checkout's src on sys.path
import workloads
from tracing import NullTracer, Tracer, summarize
from workloads import Op

from fibword import fibonacci, palindromes, squarefree
from fibword.words import BINARY, Word

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    first = workloads.plan(workload, 7, 3)
    assert first == workloads.plan(workload, 7, 3)
    assert first != workloads.plan(workload, 8, 3)
    # Every round holds the same op shapes, whatever the seed.
    assert sorted(op.label for op in first[0]) == sorted(op.label for op in first[2])


def test_prefix_density_repeats_about_half_its_lengths():
    rounds = workloads.plan("prefix-density", 3, 7)
    assert 0.4 <= worker.prefix_repeat_share(rounds) <= 0.7


def _failures(ops, tmp_path):
    ctx = workloads.Context(NullTracer(), cli_mode="inprocess", tmp=tmp_path)
    records, _ = worker.run_rounds([ops], ctx)
    return [error for _, _, error in records]


def _flip_last(word):
    return Word(word.alphabet, word.text[:-1] + ("1" if word.text[-1] == "0" else "0"))


OPS = {
    "generate": Op("generate", (20000,), 20000),
    "count": Op("count", (19000, ("00", "01", "10", "11")), 19000),
    "pal_factors": Op("pal_factors", ("fib", 1000), 1000),
    "sp_count": Op("sp_count", ("random", ("01101001100101",))),
    "square_free": Op("square_free", (10,)),
    "cli": Op("cli", (14, "text", False)),  # reproduce-3-2
}


def test_correct_results_pass(tmp_path):
    assert _failures(list(OPS.values()), tmp_path) == [None] * len(OPS)


def test_census_passes_and_measures_every_layer(tmp_path):
    ctx = workloads.Context(Tracer(), cli_mode="inprocess", tmp=tmp_path)
    ctx.tracer.install()
    try:
        records, _ = worker.run_rounds([workloads.census()], ctx)
    finally:
        ctx.tracer.uninstall()
    assert [error for _, _, error in records] == [None] * len(records)
    layers = summarize(ctx.tracer.spans)
    spans = {span for _, _, span, _ in run._LAYER_METRICS}
    assert spans <= set(layers)
    assert all(layers[span]["busy_s"] > 0 for span in spans)


@pytest.mark.parametrize(
    "kind, module, name, corrupt",
    [
        ("generate", fibonacci, "infinite_prefix", lambda f: lambda n: _flip_last(f(n))),
        ("count", workloads.density, "count_occurrences", lambda f: lambda p, t: f(p, t) + (p.text == "01")),
        ("pal_factors", palindromes, "pal_factors",
         lambda f: lambda w: dataclasses.replace(f(w), pal_factors=f(w).pal_factors[1:], p_count=f(w).p_count - 1)),
        ("sp_count", palindromes, "sp_count", lambda f: lambda w: f(w) + 1),
        ("square_free", squarefree, "enumerate_square_free", lambda f: lambda a, n: f(a, n)[1:]),
    ],
)
def test_wrong_value_is_a_failed_op(monkeypatch, tmp_path, kind, module, name, corrupt):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    [error] = _failures([OPS[kind]], tmp_path)
    assert error


def test_exception_is_a_failed_op(monkeypatch, tmp_path):
    def boom(n):
        raise MemoryError("simulated")

    monkeypatch.setattr(fibonacci, "infinite_prefix", boom)
    [error] = _failures([OPS["generate"]], tmp_path)
    assert "MemoryError" in error


def test_cli_outputs_pass_in_every_format_and_wrong_values_fail(tmp_path):
    ctx = workloads.Context(NullTracer(), cli_mode="inprocess", tmp=tmp_path)
    for index in range(len(workloads.CLI_EXAMPLES)):
        for fmt in workloads.FORMATS:
            code, out, _ = workloads.execute(Op("cli", (index, fmt, False)), ctx)
            assert code == 0
            assert workloads.cli_output_problem(index, fmt, out) is None, (index, fmt)
    code, out, _ = workloads.execute(Op("cli", (14, "json", False)), ctx)
    assert workloads.cli_output_problem(14, "json", out.replace("17711", "17712"))
    code, out, _ = workloads.execute(Op("cli", (3, "json", False)), ctx)
    assert workloads.cli_output_problem(3, "json", out.replace('"count": 0', '"count": 1'))
    code, out, _ = workloads.execute(Op("cli", (4, "csv", False)), ctx)
    assert workloads.cli_output_problem(4, "csv", out.replace("0.5", "0.6", 1))


def test_cli_out_file_is_checked(tmp_path):
    op = Op("cli", (0, "csv", True))
    assert _failures([op], tmp_path) == [None]


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    original = fibonacci.infinite_prefix
    tracer = Tracer()
    tracer.install()
    try:
        workloads.density.density(Word(BINARY, "0"), 1000)
    finally:
        tracer.uninstall()
    assert fibonacci.infinite_prefix is original
    layers = summarize(tracer.spans)
    assert layers["density.density"]["calls"] == 1
    assert layers["fibonacci.infinite_prefix"]["size"] == 1000
    outer = layers["density.density"]
    assert outer["self_s"] < outer["busy_s"]


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    e2e = run.end_to_end({"records": [("x", 0.5, None)] * 30, "rounds": 1, "peak_rss_kb": 1024}, [1.0])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [e2e[m["name"]][1] for m in spec["end_to_end"]] == [m["unit"] for m in spec["end_to_end"]]
    layers = run.per_layer({"layers": {}, "interpreter_s": 0.1, "import_s": 0.5, "check_s": 0.1,
                            "tracing_overhead": 1.0, "prefix_repeat_share": 0.5})
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert [layers[m["name"]][1] for m in spec["per_layer"]] == [m["unit"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
