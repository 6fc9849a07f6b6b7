"""Smoke test of the benchmark at toy size (eps 1e-3, limits <= 1e4).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# layers the traced run must cover, as span-name prefixes
TRACED_LAYERS = ("sieve", "arith", "beurling", "transform", "norms.flatten",
                 "norms.integrate", "uop", "mellin", "witnesses", "cli")


@pytest.fixture(scope="module")
def toy_runs():
    out = {}
    for name in workloads.NAMES:
        for trace in (False, True):
            result = run.measure(name, seed=3, seconds=0, trace=trace, toy=True)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                metrics = run.report(result, trace)
            out[name, trace] = (result, buf.getvalue(), metrics)
    return out


def _declared(kind):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload_is_correct(toy_runs, name):
    result = toy_runs[name, False][0]
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] == len(result["calls"])


@pytest.mark.parametrize("kind,trace", [("end_to_end", False), ("per_layer", True)])
def test_every_declared_metric_is_printed_with_its_unit(toy_runs, kind, trace):
    for name in workloads.NAMES:
        _, text, metrics = toy_runs[name, trace]
        lines = set(text.splitlines())
        for metric, unit in _declared(kind).items():
            value = metrics[metric]["value"]
            assert metrics[metric]["unit"] == unit
            assert f"{metric} {value!r} {unit}" in lines


def test_ops_failed_frac_is_printed(toy_runs):
    for name in workloads.NAMES:
        assert "ops_failed_frac 0.0 1" in toy_runs[name, False][1].splitlines()


def test_traced_run_emits_spans_for_every_layer(toy_runs):
    seen = set()
    for name in workloads.NAMES:
        result = toy_runs[name, True][0]
        assert any(r["traced"] for r in result["passes"])
        assert result["passes"][1]["trace"]["missing"] == []
        spans = run.WORK / f"spans-{name}-seed3.jsonl"
        seen.update(json.loads(line)["name"] for line in spans.read_text().splitlines())
    for layer in TRACED_LAYERS:
        assert any(span.startswith(layer) for span in seen), layer
    assert {s.split(".")[0] for s in seen} == set(tracing.LAYERS)


def test_seed_zero_is_nominal_and_other_seeds_stay_close():
    nominal = workloads.build("arith_scale", 0)
    assert nominal[0].argv == ("sieve", "--limit", "30000000")
    drawn = workloads.build("arith_scale", 7)
    assert drawn == workloads.build("arith_scale", 7)
    for a, b in zip(nominal, drawn):
        assert abs(a.sieve_limit / b.sieve_limit - 1.0) <= workloads.JITTER + 1e-6
    assert workloads.prefill_limits(nominal) == [10_000]
