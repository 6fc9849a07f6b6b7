"""One pass of one workload, in the fresh process ``run.py`` starts for it.

Usage: worker.py WORKLOAD SEED TOY TRACE RECORD [SPANS]

Set-up (importing nblab, numpy and scipy, and filling the sieve-cache
entries the workload does not time cold) is timed from the first statement;
then every call goes through ``nblab.cli.main`` with its output captured.
The pass writes a JSON record to RECORD, and with TRACE=1 its spans to SPANS.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _run_call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught error exits the real CLI with 1 and a traceback
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main(argv):
    workload, seed, toy, trace, record_path = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    trace = trace == "1"

    import numpy
    import scipy

    import nblab
    from nblab import cli, sieve

    import workloads

    calls = workloads.build(workload, int(seed), toy == "1")
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install(f"{workload}-{seed}-{os.getpid()}")
    for limit in workloads.prefill_limits(calls):
        sieve.sieve_mobius_cached(limit)
    setup_s = time.perf_counter() - _T0

    results = []
    run = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    cache_path = getattr(sieve, "cache_path", None)
    start = time.perf_counter()
    for call in calls:
        hit = os.path.exists(cache_path(call.sieve_limit)) if cache_path else None
        c0 = time.perf_counter()
        rc, out, err = _run_call(run, call.argv)
        results.append({"rc": rc, "stdout": out, "stderr": err, "cache_hit": hit,
                        "seconds": time.perf_counter() - c0})
    wall_s = time.perf_counter() - start

    record = {
        "setup_s": setup_s, "wall_s": wall_s, "calls": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nblab_file": nblab.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        import tracing
        tracer.dump(spans_path)
        record["trace"] = {
            "missing": tracer.missing,
            "metrics": tracing.metrics(tracer.spans, tracer.counts, tracer.maxima,
                                       tracer.shares),
        }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
