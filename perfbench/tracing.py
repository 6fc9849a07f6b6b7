"""Timing shims around nblab's public functions, installed from outside.

Each shim replaces a name where its caller looks it up (a module attribute
such as ``nblab.witnesses.lp_distance``, or a class attribute such as
``Gn.phi_terms``) with a wrapper that records a span: id, name, start, end
and parent, plus the run id.  Spans stay in memory and are written as JSON
lines when the pass ends.  A name missing from the package (renamed by a
later change) is skipped and listed, so the benchmark still runs.

Span names are ``<layer>.<part>``; ``metrics`` turns the spans and the
counters the hooks record into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("sieve", "arith", "beurling", "transform", "norms", "uop", "mellin",
          "witnesses", "cli")

_MB = 1024.0 * 1024.0
GL_EVALS_PER_SEGMENT = 48   # GL16 + GL32 per segment on the general-p path
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class _RssPeak:
    """Peak growth of this process's resident set while open, sampled every
    2 ms by a thread.  tracemalloc would be exact, but it hooks every Python
    allocation and slowed the Fraction-heavy layers about threefold, which
    distorts the self times the traced run exists to report."""

    def __init__(self):
        self._base = self._peak = _rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(0.002):
            self._peak = max(self._peak, _rss())

    def close(self) -> float:
        self._stop.set()
        self._thread.join()
        return (max(self._peak, _rss()) - self._base) / _MB


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # (id, name, start_ns, end_ns, parent)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.shares = defaultdict(list)
        self.missing = []
        self._stack = []
        self._paused = False

    def wrap(self, name, fn, hook=None, memory=False):
        """fn with a span around each call; name may be a function of the
        call's arguments.  hook(tracer, result, args, kwargs) runs after the
        span closes; memory records the call's peak resident-set growth."""
        tracer = self

        def shim(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            rss = _RssPeak() if memory else None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if rss is not None:
                    key = f"{span_name}_peak_alloc_mb"
                    tracer.maxima[key] = max(tracer.maxima[key], rss.close())
                tracer._stack.pop()
                tracer.spans[sid] = (sid, span_name, start, end, parent)
            if hook is not None:
                tracer._paused = True
                try:
                    hook(tracer, result, args, kwargs)
                finally:
                    tracer._paused = False
            return result

        shim.__wrapped__ = fn
        return shim

    def patch(self, owner, attr, name, hook=None, memory=False):
        """Replace owner.attr (function, classmethod or property) by a shim."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, hook, memory)))
        elif isinstance(raw, property):
            setattr(owner, attr, property(self.wrap(name, raw.fget, hook, memory)))
        else:
            setattr(owner, attr, self.wrap(name, raw, hook, memory))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")


# --- hooks: counters measured where the work happens ----------------------

def _on_cached(t, result, args, kwargs):
    t.counts["sieve.cache_hits" if result[1] else "sieve.cache_misses"] += 1


def _on_save(t, result, args, kwargs):
    t.counts["sieve.bytes_written"] += os.path.getsize(args[1])


def _on_load(t, result, args, kwargs):
    t.counts["sieve.bytes_read"] += os.path.getsize(args[1])


def _on_profile(t, profile, args, kwargs):
    t.counts["arith.profile_builds"] += 1
    nbytes = sum(v.nbytes for v in vars(profile).values() if isinstance(v, np.ndarray))
    t.maxima["arith.profile_bytes"] = max(t.maxima["arith.profile_bytes"], nbytes)


def _on_family(t, family, args, kwargs):
    t.counts["beurling.terms"] += len(family.terms)


def _flatten_terms(f):
    if hasattr(f, "terms"):
        return list(f.terms)
    return list(getattr(f, "phi_terms", []))


def _on_flatten(t, pw, args, kwargs, budget):
    eps = kwargs.get("eps", args[2] if len(args) > 2 else None)
    t.counts["norms.flatten_calls"] += 1
    t.counts["norms.segments"] += pw.segment_count
    t.counts["norms.useful_segments"] += int(np.count_nonzero(pw.hi > pw.lo))
    t.maxima["norms.drift_bound_max"] = max(t.maxima["norms.drift_bound_max"],
                                            float(pw.drift_bound))
    if budget:
        predicted = sum(int(float(theta) / eps) + 1 for _, theta in _flatten_terms(args[0]))
        t.maxima["norms.budget_frac_max"] = max(t.maxima["norms.budget_frac_max"],
                                                predicted / budget)


def _integrate_name(args, kwargs):
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    return {2.0: "norms.integrate_p2", 1.0: "norms.integrate_p1"}.get(p, "norms.integrate_gp")


def _on_lp_norm(t, rep, args, kwargs):
    if _integrate_name(args, kwargs) == "norms.integrate_gp":
        t.counts["norms.quad_evals"] += GL_EVALS_PER_SEGMENT * rep.segments
    budget = rep.quad_error + rep.tail_low + rep.tail_high
    if budget > 0.0:
        t.shares["norms.quad_err_share"].append(rep.quad_error / budget)
        t.shares["norms.tail_low_share"].append(rep.tail_low / budget)


def _on_u_norm(t, rep, args, kwargs):
    t.counts["uop.segments"] += rep.segments


def install(run_id: str) -> Tracer:
    """Patch nblab's public functions; returns the tracer recording them."""
    from nblab import arith, beurling, mellin, norms, sieve, transform, uop, witnesses

    t = Tracer(run_id)
    budget = getattr(norms, "FLATTEN_BUDGET", 0)
    table = [
        (sieve, "sieve_mobius_cached", "sieve.cached", _on_cached, False),
        (sieve, "sieve_mobius", "sieve.sieve", None, False),
        (sieve.MobiusTable, "save", "sieve.save", _on_save, False),
        (sieve.MobiusTable, "load", "sieve.load", _on_load, False),
        (arith, "build_profile", "arith.build_profile", _on_profile, True),
        (arith, "floor_sum_check", "arith.floor_sum_check", None, False),
        (beurling, "make_family", "beurling.make_family", _on_family, False),
        (witnesses, "make_family", "beurling.make_family", _on_family, False),
        (transform.Gn, "__init__", "transform.gn_build", None, False),
        (transform.Gn, "phi_terms", "transform.gn_build", None, False),
        (transform.Gn, "sup_bound", "transform.gn_build", None, False),
        (transform, "mobius_log_identity", "transform.mobius_log_identity", None, False),
        (norms, "to_piecewise", "norms.flatten",
         lambda *a: _on_flatten(*a, budget=budget), True),
        (norms, "lp_norm", _integrate_name, _on_lp_norm, False),
        (witnesses, "lp_distance", "norms.lp_distance", None, False),
        (uop, "lp_distance", "norms.lp_distance", None, False),
        (uop, "isometry_check", "uop.isometry_check", None, False),
        (uop, "u_l2_norm", "uop.u_l2_norm", _on_u_norm, False),
        (uop, "head_constant", "uop.head", None, False),
        (uop, "ut_head", "uop.head", None, False),
        (uop, "ut_direct", "uop.head", None, False),
        (witnesses, "usn_lower_integral", "uop.witness_bound", None, False),
        (witnesses, "gn_chain_lower", "uop.witness_bound", None, False),
        (mellin, "mellin_numeric", "mellin.numeric", None, False),
        (mellin, "mellin_reference", "mellin.reference", None, False),
        (witnesses, "make_target", "witnesses.make_target", None, False),
        (witnesses, "witness_sn_l2_max", "witnesses.witness", None, False),
        (witnesses, "witness_sn_hurdle", "witnesses.witness", None, False),
        (witnesses, "witness_gn", "witnesses.witness", None, False),
        (witnesses, "witness_rn_measured", "witnesses.witness", None, False),
    ]
    for owner, attr, name, hook, memory in table:
        t.patch(owner, attr, name, hook, memory)
    return t


# --- aggregation ----------------------------------------------------------

def self_times(spans) -> dict:
    """Seconds of self time per span name: duration less direct children."""
    child = defaultdict(int)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, _ in spans:
        out[name] += (end - start - child[sid]) / 1e9
    return out


# per-layer metrics reported as self seconds of one span name
_TIMED = ("sieve.sieve", "sieve.save", "sieve.load", "arith.build_profile",
          "arith.floor_sum_check", "beurling.make_family", "transform.gn_build",
          "transform.mobius_log_identity", "norms.flatten", "norms.integrate_p2",
          "norms.integrate_p1", "norms.integrate_gp", "uop.isometry_check",
          "uop.u_l2_norm", "mellin.numeric")


def metrics(spans, counts, maxima, shares) -> dict:
    """name -> (value, unit) for one traced pass."""
    own = self_times(spans)
    out = {f"{name}_s": (own.get(name, 0.0), "s") for name in _TIMED}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum((v for k, v in own.items()
                                       if k.split(".")[0] == layer), 0.0), "s")
    for name in ("sieve.cache_hits", "sieve.cache_misses", "arith.profile_builds",
                 "beurling.terms", "norms.flatten_calls", "norms.segments",
                 "norms.quad_evals", "uop.segments"):
        out[name] = (counts.get(name, 0.0), "count")
    for name in ("sieve.bytes_written", "sieve.bytes_read"):
        out[name] = (counts.get(name, 0.0), "B")
    out["arith.profile_bytes"] = (float(maxima.get("arith.profile_bytes", 0.0)), "B")
    out["arith.peak_alloc_mb"] = (maxima.get("arith.build_profile_peak_alloc_mb", 0.0), "MB")
    out["norms.flatten_peak_alloc_mb"] = (maxima.get("norms.flatten_peak_alloc_mb", 0.0), "MB")
    segments = counts.get("norms.segments", 0.0)
    out["norms.useful_segment_frac"] = (
        counts.get("norms.useful_segments", 0.0) / segments if segments else 0.0, "1")
    out["norms.budget_frac_max"] = (maxima.get("norms.budget_frac_max", 0.0), "1")
    out["norms.drift_bound_max"] = (maxima.get("norms.drift_bound_max", 0.0), "1")
    for name in ("norms.quad_err_share", "norms.tail_low_share"):
        values = shares.get(name, [])
        out[name] = (sum(values) / len(values) if values else 0.0, "1")
    out["trace.spans"] = (float(len(spans)), "count")
    return out
