"""Arithmetic profiles: M(n), g(n), gamma(n), H_p(n) over a sieved range.

g and gamma are kept as exact rationals up to ``exact_limit`` (identity
tests need exactness there) and as compensated floating sums everywhere.
The profile does not fix p: an H_p lane is accumulated from M on request,
for any p > 1.  The defining relations are

    M(n) = sum_{k<=n} mu(k)
    g(n) = sum_{k<=n} mu(k)/k
    gamma(n) = sum_{k<=n-1} M(k)/(k(k+1))
    H_p(n) = integral_1^n M(t) t^(-2/p) dt

and g(n) = M(n)/n + gamma(n) holds exactly for every n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .sieve import MobiusTable

DEFAULT_EXACT_LIMIT = 10**4


@dataclass(frozen=True)
class ArithProfile:
    limit: int
    exact_limit: int
    mu_values: np.ndarray        # int8, mu(1..limit)
    mertens: np.ndarray          # int64, M(1..limit)
    g_float: np.ndarray          # float64, g(1..limit)
    gamma_float: np.ndarray      # float64, gamma(1..limit)
    _g_exact: list = field(repr=False, default_factory=list)
    _gamma_exact: list = field(repr=False, default_factory=list)

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside profile range [1, {self.limit}]")

    def mu(self, n: int) -> int:
        self._check(n)
        return int(self.mu_values[n - 1])

    def M(self, n: int) -> int:
        self._check(n)
        return int(self.mertens[n - 1])

    def g(self, n: int) -> float:
        self._check(n)
        return float(self.g_float[n - 1])

    def gamma(self, n: int) -> float:
        self._check(n)
        return float(self.gamma_float[n - 1])

    def hp_values(self, p: float, upto: int) -> np.ndarray:
        """H_p(1..upto) as float64, accumulated in extended precision."""
        if not p > 1:
            raise ValueError(f"p must be > 1, got {p}")
        self._check(upto)
        hp = np.zeros(upto, dtype=np.longdouble)
        k = np.arange(1, upto, dtype=np.float64).astype(np.longdouble)
        if abs(p - 2.0) < 1e-15:
            step = np.log(k + 1.0) - np.log(k)
        else:
            e = 1.0 - 2.0 / p
            step = ((k + 1.0) ** e - k ** e) / e
        hp[1:] = np.cumsum(self.mertens[:upto - 1].astype(np.longdouble) * step)
        return hp.astype(np.float64)

    def hp(self, n: int, p: float = 2.0) -> float:
        return float(self.hp_values(p, n)[-1])

    def g_exact(self, n: int) -> Fraction:
        self._check(n)
        if n > self.exact_limit:
            raise ValueError(f"n={n} beyond exact limit {self.exact_limit}")
        return self._g_exact[n - 1]

    def gamma_exact(self, n: int) -> Fraction:
        self._check(n)
        if n > self.exact_limit:
            raise ValueError(f"n={n} beyond exact limit {self.exact_limit}")
        return self._gamma_exact[n - 1]

    def has_exact(self, n: int) -> bool:
        return 1 <= n <= self.exact_limit


def build_profile(table: MobiusTable,
                  exact_limit: int | None = None) -> ArithProfile:
    """Accumulate M, g and gamma from a sieved Moebius table."""
    n = table.limit
    if exact_limit is None:
        exact_limit = min(n, DEFAULT_EXACT_LIMIT)
    exact_limit = min(exact_limit, n)

    mu = table.mu_array()
    mertens = np.cumsum(mu, dtype=np.int64)
    ks = np.arange(1, n + 1, dtype=np.float64)

    # extended-precision cumulative sums keep the rounding error of the
    # float lanes far below every tolerance used downstream
    g = np.cumsum(mu.astype(np.longdouble) / ks.astype(np.longdouble))
    gamma = np.empty(n, dtype=np.longdouble)
    gamma[0] = 0.0
    if n > 1:
        k = ks[:-1].astype(np.longdouble)
        gamma[1:] = np.cumsum(mertens[:-1].astype(np.longdouble) / (k * (k + 1.0)))

    g_exact: list[Fraction] = []
    gamma_exact: list[Fraction] = []
    acc_g = Fraction(0)
    acc_gamma = Fraction(0)
    for i in range(exact_limit):
        m = int(mu[i])
        if m:
            acc_g += Fraction(m, i + 1)
        g_exact.append(acc_g)
        if i >= 1:
            acc_gamma += Fraction(int(mertens[i - 1]), i * (i + 1))
        gamma_exact.append(acc_gamma)

    return ArithProfile(
        limit=n, exact_limit=exact_limit,
        mu_values=mu, mertens=mertens,
        g_float=g.astype(np.float64),
        gamma_float=gamma.astype(np.float64),
        _g_exact=g_exact, _gamma_exact=gamma_exact,
    )


_SERIES = ("M", "g", "gamma")


def sign_changes(profile: ArithProfile, series: str, lo: int = 1,
                 hi: int | None = None) -> list[int]:
    """Positions n in [lo, hi] where the series strictly changes sign.

    A run of consecutive zeros counts as a single crossing iff the signs
    flanking the run differ; the reported position is the last n of the old
    sign.  An empty range yields an empty list.
    """
    if series not in _SERIES:
        raise ValueError(f"series must be one of {_SERIES}, got {series!r}")
    hi = profile.limit if hi is None else hi
    if hi < lo:
        return []
    if not (1 <= lo and hi <= profile.limit):
        raise ValueError(f"range [{lo}, {hi}] outside profile [1, {profile.limit}]")
    arr = {"M": profile.mertens, "g": profile.g_float,
           "gamma": profile.gamma_float}[series][lo - 1:hi]
    nz = np.flatnonzero(arr)
    if len(nz) < 2:
        return []
    s = np.sign(arr[nz])
    flips = np.flatnonzero(s[1:] != s[:-1])
    return [int(lo + nz[i]) for i in flips]


def floor_sum_check(profile: ArithProfile, j_max: int) -> bool:
    """Verify sum_{k<=j} mu(k) * floor(j/k) == 1 exactly for all j <= j_max."""
    if j_max > profile.limit:
        raise ValueError(f"j_max={j_max} beyond profile limit {profile.limit}")
    # difference-array form: floor(j/k) increments exactly at multiples of k
    diff = np.zeros(j_max + 1, dtype=np.int64)
    mu = profile.mu_values
    for k in range(1, j_max + 1):
        m = int(mu[k - 1])
        if m:
            diff[k::k] += m
    sums = np.cumsum(diff[1:])
    return bool(np.all(sums == 1))
