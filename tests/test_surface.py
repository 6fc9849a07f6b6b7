"""The package's public surface, and the names the benchmark's tracer patches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import nblab

# names that left the package: deleted, or moved to tests/oracles.py
NOT_EXPORTED = ("sign_changes", "step_values", "recover_coefficients",
                "convergence_trend")


def test_all_names_resolve_once():
    assert len(set(nblab.__all__)) == len(nblab.__all__)
    for name in nblab.__all__:
        assert getattr(nblab, name, None) is not None, name


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from nblab import *", ns)
    assert set(ns) - {"__builtins__"} == set(nblab.__all__)


def test_test_only_names_not_exported():
    for name in NOT_EXPORTED:
        assert name not in nblab.__all__
        assert not hasattr(nblab, name)


def test_tracer_finds_every_patched_name():
    # perfbench/tracing.py skips and lists a name it cannot find, so a name
    # dropped from the package would silently drop a per-layer metric; a
    # fresh interpreter, since install patches the modules it finds
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(nblab.__file__).parents[1])
    script = ("import json, tracing\n"
              "print(json.dumps(tracing.install('t').missing))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, str(repo / "perfbench"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == []
