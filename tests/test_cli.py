import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nblab
from nblab import arith, cli, norms, sieve, witnesses
from nblab.norms import NormReport
from nblab.witnesses import WitnessReport


@pytest.fixture(autouse=True)
def _tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NB_CACHE_DIR", str(tmp_path / "cache"))


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sieve_command(capsys):
    assert cli.main(["sieve", "--limit", "1000"]) == 0
    out = capsys.readouterr().out
    assert "mertens=2" in out and "sieved" in out
    assert cli.main(["sieve", "--limit", "1000"]) == 0
    assert "cache hit" in capsys.readouterr().out


@pytest.mark.parametrize("limit", [2 ** 31, 10 ** 12])
def test_sieve_limit_checked_before_sieving(limit, tmp_path, monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran past the profile limit")

    monkeypatch.setattr(sieve, "sieve_mobius", no_sieve)
    assert cli.main(["sieve", "--limit", str(limit)]) == 3
    assert "below 2^31" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_norm_csv_schema_and_determinism(tmp_path):
    out = tmp_path / "norm.csv"
    argv = ["norm", "--family", "bn", "--p", "1.0",
            "--n-grid", "5,10", "--epsilon", "1e-3", "--out", str(out)]
    assert cli.main(argv) == 0
    rows1 = _read_csv(out)
    assert rows1[0] == list(cli.NORM_COLUMNS)
    assert rows1[0] == ["family", "n", "p", "value", "err", "tail_low",
                        "tail_high", "segments", "seconds"]
    assert len(rows1) == 3
    assert [r[1] for r in rows1[1:]] == ["5", "10"]
    for r in rows1[1:]:
        assert r[0] == "bn"
        assert float(r[3]) > 0.0 and float(r[4]) >= 0.0
        assert int(r[7]) > 0
    assert cli.main(argv) == 0
    rows2 = _read_csv(out)
    assert [r[:8] for r in rows1] == [r[:8] for r in rows2]


def test_norm_cutoff_above_min_theta(capsys):
    # sn at n = 5 has smallest theta 1/5; the cutoff may lie above it
    assert cli.main(["norm", "--family", "sn", "--epsilon", "0.5",
                     "--n-grid", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(cli.NORM_COLUMNS)
    assert len(out) == 2
    assert math.isfinite(float(out[1].split(",")[3]))


def test_witness_csv_pass(tmp_path):
    out = tmp_path / "wit.csv"
    assert cli.main(["witness", "--family", "sn", "--p", "1.5",
                     "--n-grid", "10,20", "--epsilon", "1e-4",
                     "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["anchor", "family", "n", "p", "lhs_low", "lhs_high",
                       "rhs", "satisfied", "margin"]
    for r in rows[1:]:
        assert r[0] == "sn_lp_lower" and r[7] == "1"
        assert float(r[4]) <= float(r[5])
        assert float(r[8]) >= 0.0


def test_witness_rn_measured_exit_zero(tmp_path):
    out = tmp_path / "rn.csv"
    assert cli.main(["witness", "--family", "rn", "--n-grid", "5,10",
                     "--epsilon", "1e-4", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert all(r[0] == "rn_l2_measured" and r[6] == "0.0" for r in rows[1:])


def test_witness_failure_exit_code(tmp_path, monkeypatch):
    bad_lhs = NormReport(p=2.0, value=0.0, tail_low=0.0, tail_high=0.0,
                         quad_error=0.0, segments=1, far_tail=0.0,
                         power_value=0.0)

    def fake(n, profile, eps):
        return WitnessReport(anchor="sn_l2_head", family="sn", n=n, p=2.0,
                             lhs=bad_lhs, rhs=5.0, theorem_backed=True)

    monkeypatch.setattr(witnesses, "witness_sn_l2_max", fake)
    code = cli.main(["witness", "--family", "sn", "--n-grid", "10,20",
                     "--out", str(tmp_path / "f.csv")])
    assert code == 2
    rows = _read_csv(tmp_path / "f.csv")
    # a failed row does not stop the sweep: every row is written
    assert rows[0] == list(cli.WITNESS_COLUMNS)
    assert [(r[2], r[7]) for r in rows[1:]] == [("10", "0"), ("20", "0")]


def test_identity_suite(capsys):
    assert cli.main(["identity", "--limit", "200"]) == 0
    out = capsys.readouterr().out
    for name in ("floor_sum", "g_decomposition", "gamma_integral",
                 "mobius_log"):
        assert f"{name}: pass" in out


def test_identity_catches_float_gamma_error(monkeypatch, capsys):
    # one entry of the float gamma lane off by 1e-13: the exact lanes still
    # agree, but that entry leaves its rounding bound of the exact gamma(n)
    profile = arith.build_profile(sieve.sieve_mobius(2000))
    profile.gamma_float[1000] += 1e-13
    monkeypatch.setattr(cli, "_profile", lambda limit: profile)
    assert cli.main(["identity", "--limit", "2000"]) == 2
    out = capsys.readouterr().out
    assert "g_decomposition: pass" in out and "gamma_integral: FAIL" in out


def test_identity_suite_past_exact_limit(capsys):
    assert cli.main(["identity", "--limit", str(arith.EXACT_LIMIT + 50)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: pass" for name in ("floor_sum", "g_decomposition",
                                     "gamma_integral", "mobius_log")]


def test_identity_suite_at_100000(capsys):
    # the linear-time decomposition checks, and the mobius_log check on its
    # rounding bound: the gap passes 1e-10 at some N from about 32,000 on
    assert cli.main(["identity", "--limit", "100000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: pass" for name in ("floor_sum", "g_decomposition",
                                     "gamma_integral", "mobius_log")]


def test_identity_mobius_log_catches_mertens_error(monkeypatch, capsys):
    # M(701) + 1 moves every sampled right-hand side past x = 701 by
    # Phi(x/701) - Phi(x/702), far outside the rounding bound
    profile = arith.build_profile(sieve.sieve_mobius(100_000))
    profile.mertens[700] += 1
    monkeypatch.setattr(cli, "_profile", lambda limit: profile)
    assert cli.main(["identity", "--limit", "100000"]) == 2
    assert "mobius_log: FAIL" in capsys.readouterr().out.splitlines()


def test_mellin_command(capsys):
    assert cli.main(["mellin", "--kernel", "M", "--s", "2.0",
                     "--cutoff", "2000"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "kernel=M" in out


@pytest.mark.parametrize("kernel,p", [("M", "2"), ("xg", "2"), ("hp", "3")])
def test_mellin_streams_from_the_packed_table(kernel, p, monkeypatch, capsys):
    # neither a profile nor a whole mu array is built, over more than one chunk
    def no_whole_lanes(*args, **kwargs):
        raise AssertionError("mellin built a whole-range lane")

    monkeypatch.setattr(arith, "build_profile", no_whole_lanes)
    monkeypatch.setattr(sieve.MobiusTable, "mu_array", no_whole_lanes)
    cutoff = 3 * arith.CHUNK + 78
    assert cli.main(["mellin", "--kernel", kernel, "--p", p, "--s", "2.5",
                     "--cutoff", str(cutoff)]) == 0
    assert f"cutoff={cutoff}" in capsys.readouterr().out


def test_mellin_p_only_read_by_hp_kernel(capsys):
    assert cli.main(["mellin", "--kernel", "M", "--cutoff", "2000",
                     "--p", "1"]) == 0
    assert "pass" in capsys.readouterr().out
    assert cli.main(["mellin", "--kernel", "hp", "--cutoff", "2000",
                     "--p", "1"]) == 3


@pytest.mark.parametrize("family", ["sn", "gn"])
def test_witness_rejects_p_one_before_any_norm(family, monkeypatch, capsys):
    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was computed before p was checked")

    monkeypatch.setattr(witnesses, "lp_distance", no_norm)
    assert cli.main(["witness", "--family", family, "--p", "1",
                     "--n-grid", "10"]) == 3
    assert "p must be > 1" in capsys.readouterr().err


def test_norm_rejects_p_below_one_before_flatten(monkeypatch, capsys):
    def no_flatten(*args, **kwargs):
        raise AssertionError("a flatten ran before p was checked")

    monkeypatch.setattr(norms, "to_piecewise", no_flatten)
    assert cli.main(["norm", "--family", "sn", "--p", "0.5",
                     "--n-grid", "10"]) == 3
    assert "p must be >= 1" in capsys.readouterr().err


def test_witness_rn_rejects_p_other_than_two(monkeypatch, capsys):
    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was computed before p was checked")

    monkeypatch.setattr(witnesses, "lp_distance", no_norm)
    assert cli.main(["witness", "--family", "rn", "--p", "3",
                     "--n-grid", "10"]) == 3
    assert "p must be 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["norm", "--family", "sn", "--p", "0.5", "--n-grid", "10"], "p must be >= 1"),
    (["witness", "--family", "gn", "--p", "1", "--n-grid", "10"], "p must be > 1"),
    (["witness", "--family", "sn", "--epsilon", "1.5", "--n-grid", "10"],
     "cutoff must lie in (0, 1)"),
    (["mellin", "--kernel", "hp", "--p", "1", "--cutoff", "30000000"], "p must be > 1"),
    (["mellin", "--kernel", "M", "--cutoff", "3000000000"], "below 2^31"),
    (["norm", "--family", "sn", "--p", "nan", "--n-grid", "10"], "p must be >= 1 and finite"),
    (["witness", "--family", "sn", "--p", "inf", "--n-grid", "10"], "p must be > 1 and finite"),
    (["mellin", "--kernel", "M", "--s", "inf", "--cutoff", "1000"], "s must be finite"),
    (["norm", "--family", "sn", "--n-grid", "10", "--epsilon", "1e-310"], "normal double"),
    (["norm", "--family", "sn", "--n-grid", "10", "--epsilon", "5e-324"], "normal double"),
    (["witness", "--family", "rn", "--n-grid", "10", "--epsilon", "5e-324"],
     "normal double"),
    (["norm", "--family", "rn", "--n-grid", "1", "--epsilon", "1e-310"], "normal double"),
    (["mellin", "--kernel", "zeta"], "invalid choice: 'zeta'"),
])
def test_arguments_rejected_before_any_sieve(argv, message, monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the sieve ran before the arguments were checked")

    monkeypatch.setattr(sieve, "sieve_mobius_cached", no_sieve)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_u_heads(tmp_path):
    out = tmp_path / "u.csv"
    assert cli.main(["u", "--n-grid", "5,10", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == list(cli.U_COLUMNS)
    assert all(r[5] == "1" for r in rows[1:])
    fams = {r[1] for r in rows[1:]}
    assert fams == set(witnesses.ALL_FAMILIES)


def test_u_isometry(tmp_path):
    out = tmp_path / "ui.csv"
    assert cli.main(["u", "--family", "sn", "--n-grid", "5",
                     "--isometry", "--out", str(out)]) == 0
    rows = _read_csv(out)
    checks = {r[0] for r in rows[1:]}
    assert "isometry_sn" in checks and "isometry_bn" in checks
    # the probes reach n = 5, past a smaller grid's largest point
    for grid in ("3", "1"):
        assert cli.main(["u", "--n-grid", grid, "--isometry", "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [(r[0], r[2]) for r in rows[-len(cli.ISOMETRY_PROBES):]] == [
            (f"isometry_{family}", str(n)) for family, n in cli.ISOMETRY_PROBES]
        assert all(r[5] == "1" for r in rows[1:])


@pytest.mark.parametrize("argv", [
    ["norm"],                                          # missing --family
    ["norm", "--family", "zz"],                        # bad choice
    ["norm", "--family", "sn", "--n-grid", "0,5"],     # nonpositive grid
    ["norm", "--family", "sn", "--n-grid", "x"],       # unparsable grid
    ["witness", "--family", "sn", "--n-grid", "10",
     "--limit", "5"],                                  # removed flag
    ["norm", "--family", "sn", "--epsilon", "1.5",
     "--n-grid", "5"],                                 # cutoff out of range
    ["bogus"],                                         # unknown subcommand
    ["norm", "--family", "rn", "--n-grid", "100",
     "--epsilon", "1e-6"],                             # flatten budget
    ["norm", "--family", "sn", "--p", "nan", "--n-grid", "10",
     "--epsilon", "1e-2"],                             # p not a number
    ["norm", "--family", "sn", "--p", "inf", "--n-grid", "10",
     "--epsilon", "1e-2"],                             # p infinite
    ["witness", "--family", "sn", "--p", "inf", "--n-grid", "10",
     "--epsilon", "1e-2"],                             # p infinite
    ["mellin", "--kernel", "M", "--s", "inf",
     "--cutoff", "1000"],                              # s infinite
    ["mellin", "--kernel", "hp", "--p", "inf", "--s", "3",
     "--cutoff", "1000"],                              # p infinite
    ["norm", "--family", "sn", "--n-grid", "10",
     "--limit", "20000"],                              # removed flag
    ["u", "--n-grid", "10", "--limit", "20000"],       # removed flag
    ["norm", "--family", "sn", "--n-grid", "10",
     "--plot-script", "trend.gp"],                     # removed flag
    ["witness", "--family", "sn", "--n-grid", "10",
     "--plot-script", "trend.gp"],                     # removed flag
])
def test_config_errors_exit_three(argv, capsys):
    assert cli.main(argv) == 3
    assert capsys.readouterr().err != ""


def test_budget_error_before_any_output(capsys):
    # about 2.4e300 breakpoints: refused before the CSV header, in one short line
    assert cli.main(["norm", "--family", "sn", "--n-grid", "10",
                     "--epsilon", "1e-300"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert "breakpoints exceed budget" in err


def test_header_comes_with_the_first_row(tmp_path, capsys):
    out = tmp_path / "rn.csv"
    # the first row fails: the file is left empty, with no header
    assert cli.main(["norm", "--family", "rn", "--n-grid", "100",
                     "--out", str(out)]) == 3
    assert out.read_text() == ""
    # a later row fails: the rows before it are written, header first
    assert cli.main(["norm", "--family", "rn", "--n-grid", "5,100",
                     "--out", str(out)]) == 3
    rows = _read_csv(out)
    assert rows[0] == list(cli.NORM_COLUMNS)
    assert [r[1] for r in rows[1:]] == ["5"]
    assert "breakpoints exceed budget" in capsys.readouterr().err


def test_bad_out_path_fails_before_any_norm(tmp_path, monkeypatch, capsys):
    def no_norm(*args, **kwargs):
        raise AssertionError("a norm was computed before --out was opened")

    monkeypatch.setattr(witnesses, "lp_distance", no_norm)
    missing = str(tmp_path / "missing" / "x.csv")
    for argv in (["norm", "--family", "sn"], ["witness", "--family", "gn"]):
        assert cli.main(argv + ["--n-grid", "10", "--out", missing]) == 3
        assert "No such file or directory" in capsys.readouterr().err


def test_n_grid_sorted_unique():
    assert cli._n_grid("10,5,5,1") == (1, 5, 10)


# one call through each caller of nblab.special: Gamma(a, x) in the gn norm's
# near-zero tail, Si in the sn witness, zeta in both Mellin references,
# log m! in the identity suite; u runs the rest of uop, which holds H_m
NO_SCIPY_CALLS = (
    ["norm", "--family", "gn", "--p", "3", "--n-grid", "10", "--epsilon", "1e-3"],
    ["witness", "--family", "sn", "--p", "2", "--n-grid", "10", "--epsilon", "1e-3"],
    ["mellin", "--kernel", "M"],
    ["mellin", "--kernel", "hp", "--p", "3"],
    ["identity", "--limit", "2000"],
    ["u", "--isometry", "--n-grid", "10"],
)


def test_no_call_imports_scipy(tmp_path):
    # a fresh interpreter, so no other test's import counts; scipy is a
    # test-only dependency and no call path may import it, even lazily
    script = ("import json, sys\n"
              "from nblab import cli\n"
              f"codes = [cli.main(argv) for argv in {list(NO_SCIPY_CALLS)!r}]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy')]))\n")
    src = str(Path(nblab.__file__).parents[1])
    env = dict(os.environ, NB_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=300, check=True)
    codes, scipy_modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(NO_SCIPY_CALLS)
    assert scipy_modules == []
