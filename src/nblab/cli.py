"""Command-line drivers: sieve cache, norm sweeps, witnesses, identities.

Exit codes: 0 all checks passed, 2 a theorem-backed check failed, 3 for
configuration or resource problems.  All flags are long-form; the only
environment variable consulted is NB_CACHE_DIR (sieve cache directory).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
import time
from fractions import Fraction

from . import arith, beurling, mellin, norms, sieve, transform, uop, witnesses

NORM_COLUMNS = ("family", "n", "p", "value", "err", "tail_low", "tail_high",
                "segments", "seconds")
WITNESS_COLUMNS = ("anchor", "family", "n", "p", "lhs_low", "lhs_high", "rhs",
                   "satisfied", "margin")
U_COLUMNS = ("check", "family", "n", "expected", "actual", "satisfied")
# small sums whose ||f||_2 and ||Uf||_2 `u --isometry` compares
ISOMETRY_PROBES = (("sn", 1), ("sn", 2), ("sn", 3), ("vn", 3), ("bn", 5))

EXIT_OK = 0
EXIT_WITNESS_FAILED = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # failed witnesses, so remap usage errors to the config code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _n_grid(text: str) -> tuple:
    try:
        grid = tuple(sorted({int(part) for part in text.split(",") if part}))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-grid {text!r}") from exc
    if not grid or grid[0] < 1:
        raise argparse.ArgumentTypeError(f"n-grid must be positive integers, got {text!r}")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nblab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    rows = argparse.ArgumentParser(add_help=False)      # norm, witness, u
    rows.add_argument("--n-grid", type=_n_grid, default=(10, 100, 1000))
    rows.add_argument("--out", default="-")
    lp = argparse.ArgumentParser(add_help=False)        # norm, witness
    lp.add_argument("--p", type=float, default=2.0)
    lp.add_argument("--epsilon", type=float, default=1e-6)

    p_sieve = sub.add_parser("sieve", help="build or reuse a Moebius cache")
    p_sieve.add_argument("--limit", type=int, required=True)

    p_norm = sub.add_parser("norm", parents=[rows, lp],
                            help="certified norm sweep over an n-grid")
    p_norm.add_argument("--family", choices=witnesses.ALL_FAMILIES, required=True)

    p_wit = sub.add_parser("witness", parents=[rows, lp],
                           help="lower-bound witnesses over an n-grid")
    p_wit.add_argument("--family", choices=("sn", "gn", "rn"), required=True)

    p_id = sub.add_parser("identity", help="exact arithmetic identity suite")
    p_id.add_argument("--limit", type=int, default=10_000)

    p_mel = sub.add_parser("mellin", help="truncated transform vs closed form")
    p_mel.add_argument("--kernel", choices=mellin.KERNELS, required=True)
    p_mel.add_argument("--s", type=float, default=2.0)
    p_mel.add_argument("--cutoff", type=int, default=10**6)
    p_mel.add_argument("--p", type=float, default=2.0)

    p_u = sub.add_parser("u", parents=[rows],
                         help="head constants and isometry spot checks")
    p_u.add_argument("--family", choices=witnesses.ALL_FAMILIES, default=None)
    p_u.add_argument("--isometry", action="store_true",
                     help="also run small-sum isometry checks with far cutoff 1e4")
    return parser


def _table(limit: int) -> tuple[sieve.MobiusTable, bool]:
    arith.check_limit(limit)
    return sieve.sieve_mobius_cached(limit)


def _profile(limit: int) -> arith.ArithProfile:
    return arith.build_profile(_table(limit)[0])


def _write_rows(path: str, columns, rows) -> int:
    """Write (row, ok) pairs to path ("-" is stdout) as CSV, flushing each
    row and sending the header with the first; 2 if any row's check failed."""
    failed = False
    sink = contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="")
    with sink as fh:
        out = csv.writer(fh)
        for i, (row, ok) in enumerate(rows):
            if i == 0:
                out.writerow(columns)
            out.writerow(row)
            fh.flush()
            failed = failed or not ok
    return EXIT_WITNESS_FAILED if failed else EXIT_OK


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_sieve(args) -> int:
    table, hit = _table(args.limit)
    mertens = table.mertens()
    status = "cache hit" if hit else "sieved"
    print(f"limit={args.limit} mertens={mertens} ({status}, "
          f"{sieve.cache_path(args.limit)})")
    return EXIT_OK


def cmd_norm(args) -> int:
    norms.check_p(args.p)
    norms.check_cutoff(args.epsilon)
    profile = _profile(max(args.n_grid))
    gen = witnesses.DEFAULT_GENERATOR[args.family]

    def rows():
        for n in args.n_grid:
            t0 = time.perf_counter()
            rep = witnesses.lp_distance(
                witnesses.make_target(args.family, n, profile),
                gen, args.p, args.epsilon)
            yield ([args.family, n, _fmt(args.p), _fmt(rep.value), _fmt(rep.err),
                    _fmt(rep.tail_low), _fmt(rep.tail_high), rep.segments,
                    f"{time.perf_counter() - t0:.3f}"], True)
    return _write_rows(args.out, NORM_COLUMNS, rows())


def cmd_witness(args) -> int:
    witnesses.check_p(args.family, args.p)
    norms.check_cutoff(args.epsilon)
    profile = _profile(max(args.n_grid))

    def rows():
        for n in args.n_grid:
            rep = witnesses.witness(args.family, n, args.p, profile, args.epsilon)
            yield ([rep.anchor, rep.family, rep.n, _fmt(rep.p), _fmt(rep.lhs.lower),
                    _fmt(rep.lhs.upper), _fmt(rep.rhs), int(rep.satisfied),
                    _fmt(rep.margin)], rep.satisfied or not rep.theorem_backed)
    return _write_rows(args.out, WITNESS_COLUMNS, rows())


def cmd_identity(args) -> int:
    profile = _profile(args.limit)
    floor_ok = arith.floor_sum_check(profile, args.limit)
    g_ok, gamma_ok = arith.decomposition_checks(profile, args.limit)
    xs = [Fraction(1), Fraction(2)] + [
        Fraction(j * args.limit, 20) + Fraction(1, 3) for j in range(1, 19)]
    log_ok = all(diff <= bound for *_, diff, bound in (
        transform.mobius_log_identity(min(x, args.limit), profile) for x in xs))
    checks = (("floor_sum", floor_ok), ("g_decomposition", g_ok),
              ("gamma_integral", gamma_ok), ("mobius_log", log_ok))
    for name, ok in checks:
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_WITNESS_FAILED


def cmd_mellin(args) -> int:
    mellin.check_arguments(args.kernel, args.s, args.cutoff, args.p)
    table, _ = _table(max(args.cutoff - 1, 1))
    res = mellin.mellin_numeric(table, args.kernel, args.s, args.cutoff, args.p)
    ref = mellin.mellin_reference(args.kernel, args.s, args.p)
    diff = abs(res.value - ref)
    ok = diff <= res.tail_bound + 1e-9
    print(f"kernel={args.kernel} s={args.s} cutoff={args.cutoff} "
          f"value={res.value!r} reference={ref!r} "
          f"diff={diff!r} tail_bound={res.tail_bound!r} "
          f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_WITNESS_FAILED


def cmd_u(args) -> int:
    probes = ISOMETRY_PROBES if args.isometry else ()
    profile = _profile(max(args.n_grid + tuple(n for _, n in probes)))

    def rows():
        for family in (args.family,) if args.family else witnesses.ALL_FAMILIES:
            for n in args.n_grid:
                expected, actual, ok = uop.head_check(family, n, profile)
                yield ([f"head_{family}", family, n, _fmt(expected), _fmt(actual),
                        int(ok)], ok)
        for family, n in probes:
            rep = uop.isometry_check(beurling.make_family(family, n, profile), x_max=1e4)
            yield ([f"isometry_{family}", family, n, _fmt(rep.source.value),
                    _fmt(rep.image.value), int(rep.satisfied)], rep.satisfied)
    return _write_rows(args.out, U_COLUMNS, rows())


_COMMANDS = {
    "sieve": cmd_sieve, "norm": cmd_norm, "witness": cmd_witness,
    "identity": cmd_identity, "mellin": cmd_mellin, "u": cmd_u,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_CONFIG
        raise
    except (ValueError, OSError, norms.BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
