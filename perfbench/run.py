"""nblab benchmark: the command that runs a workload and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {l2_sweep,lp_sweep,arith_scale,all}
                             --seed N --seconds S --trace {0,1}

Each pass of a workload runs in a fresh process (``worker.py``) with its own
empty NB_CACHE_DIR under ``.perfbench/``; the repository's ``.nbcache`` is
never read.  Passes repeat until the next one would end after S seconds.
With --trace 0 every pass is untraced; with --trace 1 untraced and traced
passes alternate, the traced ones with the timing shims of ``tracing.py``.

Every metric is printed as ``name value unit``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics that
BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
--trace 1).  See NOTES.md for the workloads and what each one stresses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# one BLAS thread keeps the numbers steady on a shared 2-core machine and
# leaves no more threads than cores
BLAS_THREADS = "1"
RUN_CAP_S = 170.0          # a run must end within 180 s
TINY_RATIO = 2.0 ** -52    # relative widths are floored at double precision


class BenchError(RuntimeError):
    """A pass could not be run or measured."""


def source_tree() -> Path:
    src = ROOT / "src"
    if not (src / "nblab" / "cli.py").is_file():
        raise BenchError(f"no nblab source under {src}; run from a checkout")
    return src


def _env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(source_tree()), NB_CACHE_DIR=cache_dir,
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


def run_pass(workload: str, seed: int, toy: bool, traced: bool, deadline: float) -> dict:
    """Run one pass in a fresh process and return its record."""
    WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        record = os.path.join(tmp, "record.json")
        spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
        cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
               "1" if toy else "0", "1" if traced else "0", record, str(spans)]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the pass could start")
        try:
            proc = subprocess.run(cmd, env=_env(os.path.join(tmp, "cache")), cwd=ROOT,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass of {workload} killed after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(record) as fh:
            rec = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not rec["nblab_file"].startswith(str(source_tree())):
        raise BenchError(f"imported nblab from {rec['nblab_file']}, not the checkout")
    rec["traced"] = traced
    return rec


def _load_reference(workload: str):
    with open(REFERENCE) as fh:
        return json.load(fh)[workload]


def _check_pass(calls, rec, reference):
    """(attempted, failed, problems, facts per call) for one pass."""
    problems, found_all, failed = [], [], 0
    mertens = set()
    for i, (call, res) in enumerate(zip(calls, rec["calls"])):
        ref = reference[i]["facts"] if reference is not None else None
        found, bad = workloads.check(call, res["rc"], res["stdout"], ref)
        mertens.update(f.exact for f in found if f.key == "mertens")
        if call.command == "sieve" and len(mertens) > 1:
            bad.append(f"Mertens values {sorted(mertens)} differ between sieve calls")
        if bad:
            failed += 1
            problems.extend(f"call {i + 1} ({call.label()}): {p}" for p in bad)
        found_all.append(found)
    return len(calls), failed, problems, found_all


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in source_tree().rglob("*.py"))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> dict:
    """Run one workload for about `seconds` and gather every metric."""
    calls = workloads.build(workload, seed, toy)
    reference = _load_reference(workload) if seed == 0 and not toy else None
    start = time.monotonic()
    deadline = start + RUN_CAP_S
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(workload, seed, toy, traced, deadline))
        took = time.monotonic() - t0
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and time.monotonic() - start + took > seconds:
            break

    attempted = failed = 0
    problems = []
    facts = None
    for rec in passes:
        a, f, p, found = _check_pass(calls, rec, reference)
        attempted, failed = attempted + a, failed + f
        problems.extend(p)
        facts = facts or found
    plain = [r for r in passes if not r["traced"]]
    ratios = [max(f.ratio, TINY_RATIO) for found in facts for f in found
              if f.ratio is not None and f.ok]
    if not ratios:
        raise BenchError(f"no certified row of {workload} passed its checks: {problems[:3]}")
    wall = statistics.median(r["wall_s"] for r in plain)
    e2e = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        "ops_failed_frac": (failed / attempted, "1"),
        "enclosure_rel_max": (max(ratios), "1"),
        "enclosure_rel_gmean": (math.exp(statistics.fmean(map(math.log, ratios))), "1"),
    }
    layers = {}
    traced = [r for r in passes if r["traced"]]
    if traced:
        for name in traced[0]["trace"]["metrics"]:
            value = statistics.median(r["trace"]["metrics"][name][0] for r in traced)
            layers[name] = (value, traced[0]["trace"]["metrics"][name][1])
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall, "s")
    return {"workload": workload, "seed": seed, "calls": calls, "passes": passes,
            "attempted": attempted, "failed": failed,
            "problems": problems, "e2e": e2e, "layers": layers}


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics; return its declared metrics as JSON values."""
    first = result["passes"][0]
    print(f"# workload {result['workload']} seed {result['seed']}: "
          f"{len(result['passes'])} passes "
          f"({sum(r['traced'] for r in result['passes'])} traced)")
    print(f"# env nproc={len(os.sched_getaffinity(0))} blas_threads={BLAS_THREADS} "
          + " ".join(f"{k}={v}" for k, v in first["versions"].items())
          + f" src_lines={src_lines()}")
    for i, (call, res) in enumerate(zip(result["calls"], first["calls"]), start=1):
        cache = {True: "hit", False: "miss", None: "unknown"}[res["cache_hit"]]
        print(f"# call {i}: {call.label()} -> rc={res['rc']} {res['seconds']:.3f} s "
              f"sieve_cache={cache}({call.sieve_limit})")
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    missing = {name for rec in result["passes"]
               for name in rec.get("trace", {}).get("missing", [])}
    for name in sorted(missing):
        print(f"# untraced: {name} is missing from the package")
    metrics = dict(result["e2e"])
    if trace:
        metrics.update(result["layers"])
        own = {k: v for k, (v, _) in result["layers"].items()
               if k.endswith(".self_s") and k.split(".")[0] in tracing.LAYERS}
        total = sum(own.values())
        for name, value in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"# self-time share {name.split('.')[0]:10s} "
                  f"{value / total if total else 0.0:7.2%}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    out = {}
    for name, unit in declared("per_layer" if trace else "end_to_end").items():
        value, got = metrics[name]
        if got != unit:
            raise BenchError(f"metric {name} measured in {got}, declared in {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        source_tree()
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = [measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
        printed = [report(r, bool(args.trace)) for r in results]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = printed[0]
    else:
        metrics = {f"{r['workload']}.{k}": v for r, m in zip(results, printed)
                   for k, v in m.items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
