"""Truncated Mellin transforms of M, x*g(x) and H_p, plus reference zeta values.

Each kernel is integrated exactly piecewise on [1, T] (the kernels are step
functions, or step plus an explicit antiderivative between consecutive
integers), and the discarded tail over (T, infinity) is bounded rigorously
from |M(x)| <= x, |g(x)| <= 1 and |H_p(x)| <= (q/2) x^(2/q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import ArithProfile

# B_2, B_4, ..., B_14
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def zeta_real(s: float, terms: int = 30) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin summation.

    The correction series is truncated after B_14; the truncation error is
    bounded by the first omitted term, which for terms >= 30 and s > 1 is
    far below 1e-14 relative.
    """
    if not s > 1:
        raise ValueError(f"zeta_real requires s > 1, got {s}")
    k = terms
    total = sum(j ** -s for j in range(1, k))
    total += k ** (1.0 - s) / (s - 1.0) + 0.5 * k ** -s
    # sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * k^(-s-2j+1)
    rising = s
    fact = 2.0
    for j, b2j in enumerate(_BERNOULLI, start=1):
        total += b2j / fact * rising * k ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


@dataclass(frozen=True)
class MellinResult:
    value: complex
    tail_bound: float
    cutoff: int


_KERNELS = ("M", "xg", "hp")


def mellin_numeric(profile: ArithProfile, kernel: str, s: complex,
                   cutoff: int, p: float = 2.0) -> MellinResult:
    """integral_1^T kernel(x) x^(-s-1) dx with a rigorous tail bound.

    kernel "M" and "xg" need Re s > 1; "hp" needs p > 1 and Re s > 2/q
    where q is the conjugate index of p, which only this kernel reads.
    cutoff T must be covered by the profile (M(n) for n < T).
    """
    if kernel not in _KERNELS:
        raise ValueError(f"kernel must be one of {_KERNELS}, got {kernel!r}")
    if kernel == "hp" and not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    s = complex(s)
    sigma = s.real
    min_sigma = 2.0 - 2.0 / p if kernel == "hp" else 1.0
    if not sigma > min_sigma:
        raise ValueError(f"kernel {kernel!r} needs Re s > {min_sigma}, got {sigma}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if cutoff - 1 > profile.limit:
        raise ValueError(f"cutoff {cutoff} beyond profile limit {profile.limit}")
    if cutoff == 1:
        return MellinResult(0j, _tail(kernel, sigma, 1, p), 1)

    n = np.arange(1, cutoff, dtype=np.float64)
    logn = np.log(n)
    lognn = np.log(n + 1.0)
    pow_s = np.exp(-s * logn)          # n^-s
    pow_s1 = np.exp(-s * lognn)        # (n+1)^-s
    mert = profile.mertens[:cutoff - 1].astype(np.float64)

    if kernel == "M":
        value = np.sum(mert * (pow_s - pow_s1)) / s
    elif kernel == "xg":
        g = profile.g_float[:cutoff - 1]
        value = np.sum(g * (np.exp((1 - s) * logn) - np.exp((1 - s) * lognn))) / (s - 1)
    else:
        hp = profile.hp_values(p, cutoff - 1)
        if abs(p - 2.0) < 1e-15:
            # H_2(x) = H_2(n) + M(n)(log x - log n) on [n, n+1]
            base = (hp - mert * logn) * (pow_s - pow_s1) / s
            # antiderivative of log(x) x^(-s-1): -x^-s (log x / s + 1/s^2)
            f_hi = -pow_s1 * (lognn / s + 1.0 / s**2)
            f_lo = -pow_s * (logn / s + 1.0 / s**2)
            value = np.sum(base + mert * (f_hi - f_lo))
        else:
            e = 1.0 - 2.0 / p
            base = (hp - mert * np.exp(e * logn) / e) * (pow_s - pow_s1) / s
            shifted = (np.exp((e - s) * logn) - np.exp((e - s) * lognn)) / (s - e)
            value = np.sum(base + mert / e * shifted)
    return MellinResult(complex(value), _tail(kernel, sigma, cutoff, p), cutoff)


def _tail(kernel: str, sigma: float, cutoff: int, p: float) -> float:
    if kernel in ("M", "xg"):
        return cutoff ** (1.0 - sigma) / (sigma - 1.0)
    two_over_q = 2.0 - 2.0 / p
    q = p / (p - 1.0)
    return (q / 2.0) * cutoff ** (two_over_q - sigma) / (sigma - two_over_q)


def mellin_reference(kernel: str, s: complex, p: float = 2.0) -> complex:
    """Closed-form limit of the full transform, for real s in the half-plane.

    M -> 1/(s zeta(s)); xg -> 1/((s-1) zeta(s));
    hp -> 1/(s (s + 2/p - 1) zeta(s + 2/p - 1)).
    """
    s = complex(s)
    if s.imag == 0:
        sr = s.real
        if kernel == "M":
            return 1.0 / (sr * zeta_real(sr))
        if kernel == "xg":
            return 1.0 / ((sr - 1.0) * zeta_real(sr))
        if kernel == "hp":
            shift = sr + 2.0 / p - 1.0
            return 1.0 / (sr * shift * zeta_real(shift))
    raise ValueError("closed-form reference implemented for real s only")
