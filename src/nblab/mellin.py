"""Truncated Mellin transforms of M, x*g(x) and H_p, and their zeta closed forms.

Each kernel is integrated exactly piecewise on [1, T] (the kernels are step
functions, or step plus an explicit antiderivative between consecutive
integers), and the discarded tail over (T, infinity) is bounded rigorously
from |M(x)| <= x, |g(x)| <= 1 and |H_p(x)| <= (q/2) x^(2/q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import lane_chunks
from .sieve import MobiusTable
from .special import zeta


@dataclass(frozen=True)
class MellinResult:
    value: float
    tail_bound: float
    cutoff: int


_LANES = {"M": None, "xg": "g", "hp": "hp"}     # the lane each kernel reads beside M
KERNELS = tuple(_LANES)


def check_arguments(kernel: str, s: float, cutoff: int, p: float = 2.0) -> None:
    """Raise ValueError unless mellin_numeric accepts these arguments for a
    table that covers the cutoff."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if kernel == "hp" and not 1 < p < math.inf:
        raise ValueError(f"p must be > 1 and finite, got {p}")
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    min_s = 2.0 - 2.0 / p if kernel == "hp" else 1.0
    if not s > min_s:
        raise ValueError(f"kernel {kernel!r} needs s > {min_s}, got {s}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")


def mellin_numeric(table: MobiusTable, kernel: str, s: float,
                   cutoff: int, p: float = 2.0) -> MellinResult:
    """integral_1^T kernel(x) x^(-s-1) dx, for real s, with a rigorous tail bound.

    kernel "M" and "xg" need s > 1; "hp" needs p > 1 and s > 2/q
    where q is the conjugate index of p, which only this kernel reads.
    cutoff T must be covered by the table (mu(n) for n < T).  M, g and H_p
    are summed from the packed table a chunk at a time, so the sum needs
    O(CHUNK) memory beyond the table.
    """
    check_arguments(kernel, s, cutoff, p)
    if cutoff - 1 > table.limit:
        raise ValueError(f"cutoff {cutoff} beyond table limit {table.limit}")
    if cutoff == 1:
        return MellinResult(0.0, _tail(kernel, s, 1, p), 1)

    if kernel == "hp":
        e = 1.0 - 2.0 / p
    power = 1 - s if kernel == "xg" else -s
    total = 0.0
    for lo, mertens, lane in lane_chunks(table, cutoff - 1, _LANES[kernel], p):
        hi = lo + len(mertens)
        # m = lo+1..hi+1; the n = lo+1..hi and n + 1 terms are its two shifted views
        logm = np.log(np.arange(lo + 1, hi + 2, dtype=np.float64))
        logn = logm[:-1]
        pow_m = np.exp(power * logm)
        pow_s, pow_s1 = pow_m[:-1], pow_m[1:]      # n^power, (n+1)^power
        mert = mertens.astype(np.float64)
        if kernel == "M":
            total += np.sum(mert * (pow_s - pow_s1))
        elif kernel == "xg":
            total += np.sum(lane * (pow_s - pow_s1))
        elif abs(p - 2.0) < 1e-15:
            # H_2(x) = H_2(n) + M(n)(log x - log n) on [n, n+1]
            base = (lane - mert * logn) * (pow_s - pow_s1) / s
            # antiderivative of log(x) x^(-s-1): -x^-s (log x / s + 1/s^2)
            f = -pow_m * (logm / s + 1.0 / s**2)
            total += np.sum(base + mert * (f[1:] - f[:-1]))
        else:
            base = (lane - mert * np.exp(e * logn) / e) * (pow_s - pow_s1) / s
            pow_es = np.exp((e - s) * logm)
            total += np.sum(base + mert / e * ((pow_es[:-1] - pow_es[1:]) / (s - e)))
    if kernel == "M":
        total /= s
    elif kernel == "xg":
        total /= s - 1
    return MellinResult(float(total), _tail(kernel, s, cutoff, p), cutoff)


def _tail(kernel: str, s: float, cutoff: int, p: float) -> float:
    if kernel in ("M", "xg"):
        return cutoff ** (1.0 - s) / (s - 1.0)
    two_over_q = 2.0 - 2.0 / p
    q = p / (p - 1.0)
    return (q / 2.0) * cutoff ** (two_over_q - s) / (s - two_over_q)


def mellin_reference(kernel: str, s: float, p: float = 2.0) -> float:
    """Closed-form limit of the full transform, for s in the half-plane.

    M -> 1/(s zeta(s)); xg -> 1/((s-1) zeta(s));
    hp -> 1/(s (s + 2/p - 1) zeta(s + 2/p - 1)).
    """
    check_arguments(kernel, s, 1, p)
    if kernel == "M":
        return 1.0 / (s * zeta(s)[0])
    if kernel == "xg":
        return 1.0 / ((s - 1.0) * zeta(s)[0])
    shift = s + 2.0 / p - 1.0
    return 1.0 / (s * shift * zeta(shift)[0])
