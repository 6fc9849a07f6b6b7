"""Byte pin of the CLI's value columns on a small sweep.

golden_sweep.json holds the CSV lines (less the seconds column of norm
rows) and the exit code of each call below.  A change that keeps the math
must keep them byte for byte.  To record them afresh, on a revision whose
numbers are trusted:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from nblab import cli

GOLDEN = Path(__file__).with_name("golden_sweep.json")
EPS = "1e-4"
GRID = "1,10,100"


def _calls():
    for family in ("sn", "vn", "bn", "fn", "rn", "gn"):
        for p in ("1", "1.5", "2", "3"):
            yield ("norm", "--family", family, "--p", p, "--n-grid", GRID, "--epsilon", EPS)
    for family in ("sn", "gn", "rn"):
        yield ("witness", "--family", family, "--p", "2", "--n-grid", GRID, "--epsilon", EPS)
    yield ("u", "--isometry", "--n-grid", "10,100")


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    rows = out.getvalue().splitlines()
    if argv[0] == "norm":
        rows = [row.rsplit(",", 1)[0] for row in rows]      # drop seconds
    return {"argv": " ".join(argv), "code": code, "rows": rows}


def sweep() -> list:
    with tempfile.TemporaryDirectory() as cache:
        old = os.environ.get("NB_CACHE_DIR")
        os.environ["NB_CACHE_DIR"] = cache
        try:
            return [_run(argv) for argv in _calls()]
        finally:
            if old is None:
                del os.environ["NB_CACHE_DIR"]
            else:
                os.environ["NB_CACHE_DIR"] = old


def test_sweep_matches_golden_bytes():
    want = json.loads(GOLDEN.read_text())
    got = sweep()
    assert [g["argv"] for g in got] == [w["argv"] for w in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(sweep(), indent=1) + "\n")
    sys.exit(0)
