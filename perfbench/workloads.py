"""The three benchmark workloads, their inputs, and the checks on their outputs.

A workload is a fixed list of ``nblab`` CLI calls made one after another
(a closed loop with one client).  Seed 0 runs the nominal inputs.  Any other
seed perturbs each input by at most 1 %, keeping the load at the same scale:

* sieve limits, Mellin cutoffs, the identity limit and the ``u`` n-grid are
  drawn from a window around their nominal values;
* ``norm`` and ``witness`` calls keep their n-grids and draw the cutoff eps
  instead.  The relative enclosure width of a certified norm divides by the
  norm itself, which follows M(n): across 9900 <= n <= 10100 the ``sn``
  enclosure ratio at p = 2 moves between 26 and 50.  Drawing n would make the
  enclosure metrics measure the seed, while eps changes every breakpoint of
  the flattened lattice and moves the enclosure only smoothly.

Each call's output is parsed into facts: one per printed row, holding the
row's certified interval or its exact text, its verdict, and its relative
enclosure width.  ``check`` compares them with ``reference.json``, recorded
at seed 0 from the first revision the benchmark measured.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass

NAMES = ("l2_sweep", "lp_sweep", "arith_scale")

JITTER = 0.01
TOY_EPS = 1e-3
TOY_N = 100
TOY_LIMIT = 10**4


@dataclass(frozen=True)
class Call:
    """One CLI invocation.  cold marks the calls that must sieve their own
    limit: they are timed with an empty cache and set-up never fills it."""

    argv: tuple
    cold: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str):
        argv = list(self.argv)
        return argv[argv.index(flag) + 1] if flag in argv else None

    @property
    def sieve_limit(self) -> int:
        """The Moebius table size the call asks the sieve cache for."""
        if self.command in ("sieve", "identity"):
            return int(self.option("--limit"))
        if self.command == "mellin":
            return max(int(self.option("--cutoff")) - 1, 1)
        return max(grid_values(self.option("--n-grid")))

    def label(self) -> str:
        return " ".join(self.argv)


def grid_values(text: str) -> list:
    return sorted({int(part) for part in text.split(",")})


class _Draw:
    """Inputs for one (workload, seed); seed 0 is nominal, toy shrinks every
    size so the whole workload runs in seconds."""

    def __init__(self, seed: int, toy: bool):
        self._rng = random.Random(seed) if seed else None
        self._toy = toy

    def _jitter(self, value: float) -> float:
        if self._rng is None:
            return value
        return value * self._rng.uniform(1.0 - JITTER, 1.0 + JITTER)

    def eps(self, nominal: float) -> str:
        return repr(TOY_EPS if self._toy else self._jitter(nominal))

    def grid(self, *ns: int) -> str:
        """A norm/witness n-grid: fixed (see the module docstring)."""
        return ",".join(str(min(n, TOY_N) if self._toy else n) for n in ns)

    def jgrid(self, *ns: int) -> str:
        return ",".join(str(min(n, TOY_N) if self._toy else round(self._jitter(n)))
                        for n in ns)

    def limit(self, nominal: int) -> str:
        return str(min(nominal, TOY_LIMIT) if self._toy else round(self._jitter(nominal)))


def _l2_sweep(d: _Draw) -> list:
    def norm(family, p, grid):
        return Call(("norm", "--family", family, "--p", p, "--n-grid", grid,
                     "--epsilon", d.eps(1e-6)))

    def witness(family, grid):
        return Call(("witness", "--family", family, "--p", "2", "--n-grid", grid,
                     "--epsilon", d.eps(1e-6)))

    return [
        norm("sn", "2", d.grid(10, 1000, 10000)),
        norm("gn", "2", d.grid(1000)),
        norm("bn", "1", d.grid(1000)),
        norm("fn", "1", d.grid(1000)),
        witness("sn", d.grid(1000)),
        witness("rn", d.grid(10)),
        Call(("u", "--isometry", "--n-grid", d.jgrid(10, 100, 1000))),
    ]


def _lp_sweep(d: _Draw) -> list:
    def call(command, family, p, grid):
        return Call((command, "--family", family, "--p", p, "--n-grid", grid,
                     "--epsilon", d.eps(1e-5)))

    return [
        call("norm", "sn", "1.5", d.grid(10, 100, 1000, 10000)),
        call("norm", "gn", "3", d.grid(100, 1000, 10000)),
        call("norm", "fn", "1.1", d.grid(1000, 10000)),
        call("witness", "sn", "1.5", d.grid(1000, 10000)),
    ]


def _arith_scale(d: _Draw) -> list:
    limit = d.limit(30_000_000)
    return [
        Call(("sieve", "--limit", limit), cold=True),
        Call(("sieve", "--limit", limit)),
        Call(("mellin", "--kernel", "M", "--cutoff", d.limit(10_000_000)), cold=True),
        Call(("mellin", "--kernel", "hp", "--p", "3", "--cutoff", d.limit(3_000_000)),
             cold=True),
        Call(("identity", "--limit", d.limit(10_000))),
    ]


_BUILDERS = {"l2_sweep": _l2_sweep, "lp_sweep": _lp_sweep, "arith_scale": _arith_scale}


def build(name: str, seed: int, toy: bool = False) -> list:
    """The calls of one workload for one seed, in the order they run."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return _BUILDERS[name](_Draw(seed, toy))


def prefill_limits(calls) -> list:
    """Sieve limits set-up fills: every limit a call reads that no earlier
    cold call sieves itself."""
    filled, out = set(), []
    for call in calls:
        limit = call.sieve_limit
        if limit not in filled and not call.cold:
            out.append(limit)
        filled.add(limit)
    return out


# --- outputs -------------------------------------------------------------

@dataclass(frozen=True)
class Fact:
    """One certified or exact row of a call's output.

    interval is the row's certified [lower, upper]; exact is text that must
    repeat byte for byte at seed 0; ratio is the relative enclosure width
    (None for exact rows); ok is the row's own verdict.
    """

    key: str
    interval: tuple | None = None
    exact: str | None = None
    ratio: float | None = None
    ok: bool = True


def _csv_rows(text: str, columns: tuple) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != columns:
        raise ValueError(f"expected CSV header {columns}, got {rows[:1]}")
    return [dict(zip(columns, row)) for row in rows[1:]]


def _interval(lo: float, hi: float, value: float) -> tuple:
    finite = all(math.isfinite(v) for v in (lo, hi, value))
    ok = finite and lo <= value <= hi and value > 0.0
    ratio = (hi - lo) / value if ok else math.inf
    return (lo, hi), ratio, ok


_NORM = ("family", "n", "p", "value", "err", "tail_low", "tail_high",
         "segments", "seconds")
_WITNESS = ("anchor", "family", "n", "p", "lhs_low", "lhs_high", "rhs",
            "satisfied", "margin")
_U = ("check", "family", "n", "expected", "actual", "satisfied")
_MELLIN = re.compile(r"kernel=(\S+) s=\S+ cutoff=(\d+) value=(\S+) reference=\S+ "
                     r"diff=\S+ tail_bound=(\S+) (pass|FAIL)$")
_SIEVE = re.compile(r"limit=(\d+) mertens=(-?\d+) \((sieved|cache hit),")


def _norm_facts(call: Call, text: str) -> list:
    # the row certifies |norm - value| <= err, and a norm is not negative
    rows = _csv_rows(text, _NORM)
    facts = []
    for r in rows:
        value, err = float(r["value"]), float(r["err"])
        interval, ratio, ok = _interval(max(value - err, 0.0), value + err, value)
        ok = ok and err >= 0.0 and int(r["segments"]) > 0
        facts.append(Fact(f"{r['family']},{r['n']},{r['p']}", interval, None, ratio, ok))
    _expect_grid(call, rows)
    return facts


def _witness_facts(call: Call, text: str) -> list:
    # witness rows print no point value; lhs_low is the computed lhs less its
    # quadrature error, so it stands in for the value
    rows = _csv_rows(text, _WITNESS)
    facts = []
    for r in rows:
        lo, hi = float(r["lhs_low"]), float(r["lhs_high"])
        interval, ratio, ok = _interval(lo, hi, lo)
        facts.append(Fact(f"{r['anchor']},{r['n']},{r['p']}", interval, r["satisfied"],
                          ratio, ok and r["satisfied"] == "1"))
    _expect_grid(call, rows)
    return facts


def _expect_grid(call: Call, rows: list) -> None:
    got = [int(r["n"]) for r in rows]
    if got != grid_values(call.option("--n-grid")):
        raise ValueError(f"rows for n={got}, expected the grid {call.option('--n-grid')}")


def _u_facts(call: Call, text: str) -> list:
    facts = []
    for r in _csv_rows(text, _U):
        key = f"{r['check']},{r['n']}"
        ok = r["satisfied"] == "1"
        if r["check"].startswith("isometry_"):
            # two independently certified values of one norm; the row prints
            # no interval, so it is gated by its verdict and has no width
            facts.append(Fact(key, None, r["satisfied"], None, ok))
        elif r["family"] == "gn":
            # floating head constants, compared by the CLI within 1e-10
            facts.append(Fact(key, None, r["satisfied"], None, ok))
        else:
            facts.append(Fact(key, None, f"{r['expected']},{r['actual']},{r['satisfied']}",
                              None, ok))
    return facts


def _mellin_facts(call: Call, text: str) -> list:
    m = _MELLIN.match(text.strip())
    if not m:
        raise ValueError(f"unparsed mellin line {text.strip()!r}")
    kernel, _, value, tail, verdict = m.groups()
    value, tail = float(value), float(tail)
    ok = verdict == "pass" and math.isfinite(value) and value != 0.0 and tail >= 0.0
    ratio = tail / abs(value) if ok else math.inf
    return [Fact(kernel, (value - tail, value + tail), verdict, ratio, ok)]


def _identity_facts(call: Call, text: str) -> list:
    lines = [line.split(": ") for line in text.strip().splitlines()]
    if not lines or any(len(parts) != 2 for parts in lines):
        raise ValueError(f"unparsed identity output {text!r}")
    return [Fact(name, None, verdict, None, verdict == "pass") for name, verdict in lines]


def _sieve_facts(call: Call, text: str) -> list:
    m = _SIEVE.match(text.strip())
    if not m:
        raise ValueError(f"unparsed sieve line {text.strip()!r}")
    limit, mertens, status = m.groups()
    expected = "sieved" if call.cold else "cache hit"
    return [Fact("mertens", None, mertens, None, int(limit) == call.sieve_limit),
            Fact("status", None, status, None, status == expected)]


_PARSERS = {"norm": _norm_facts, "witness": _witness_facts, "u": _u_facts,
            "mellin": _mellin_facts, "identity": _identity_facts, "sieve": _sieve_facts}


def facts(call: Call, stdout: str) -> list:
    """Parse one call's standard output; raises ValueError on a malformed one."""
    return _PARSERS[call.command](call, stdout)


def check(call: Call, rc: int, stdout: str, reference: list | None) -> tuple:
    """(facts, problems) for one call.  reference is the call's stored facts
    (seed 0 only): intervals must intersect, exact texts must be equal."""
    if rc != 0:
        return [], [f"exit code {rc}"]
    try:
        found = facts(call, stdout)
    except ValueError as exc:
        return [], [str(exc)]
    problems = [f"{f.key}: failed verdict" for f in found if not f.ok]
    if reference is not None:
        if [f.key for f in found] != [r["key"] for r in reference]:
            problems.append(f"rows {[f.key for f in found]} differ from the reference")
        for f, r in zip(found, reference):
            if r.get("interval") is not None:
                lo, hi = r["interval"]
                if f.interval is None or f.interval[1] < lo or f.interval[0] > hi:
                    problems.append(f"{f.key}: {f.interval} misses reference [{lo}, {hi}]")
            if r.get("exact") is not None and f.exact != r["exact"]:
                problems.append(f"{f.key}: {f.exact!r} != reference {r['exact']!r}")
    return found, problems
