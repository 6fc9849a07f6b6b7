"""Arithmetic profiles: M(n), g(n), gamma(n), H_p(n) over a sieved range.

A profile stores mu, M (int32, so its range ends below 2^31) and the packed
table it was built from.  lane_chunks is the one stream that sums the
float lanes: it reads M, g, gamma or H_p from a packed table a chunk at a
time, in long double, and the profile lays its chunks end to end.  g and
gamma are built on first read, as those float64 lanes and as exact
rationals up to EXACT_LIMIT; beyond EXACT_LIMIT the exact value read for a
folded coefficient is that of the float entry.  The profile does not fix
p: an H_p lane is accumulated on request, for any p > 1.  The defining
relations are

    M(n) = sum_{k<=n} mu(k)
    g(n) = sum_{k<=n} mu(k)/k
    gamma(n) = sum_{k<=n-1} M(k)/(k(k+1))
    H_p(n) = integral_1^n M(t) t^(-2/p) dt

and g(n) = M(n)/n + gamma(n) holds exactly for every n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .sieve import MobiusTable, _unpack

EXACT_LIMIT = 10**4
# terms per chunk of every long double running sum (and of the Mellin sums);
# a multiple of 4, so each chunk starts on a whole byte of a packed table
CHUNK = 1 << 16


def check_limit(limit: int) -> None:
    """Reject a profile range the int32 Mertens lane cannot hold."""
    # |M(n)| <= n, so int32 holds M(n) for every n below 2^31
    if limit >= 2**31:
        raise ValueError(f"profile limit must be below 2^31, got {limit}")


def _fold(x: np.ndarray, carry):
    """Prefix sums of x in place, starting from carry; returns the new carry.

    Folding the carry into the first term makes the same sequence of
    roundings as one cumsum over all terms, so a lane can be summed a chunk
    at a time and still match the whole-array sum bit for bit.
    """
    x[0] += carry
    np.cumsum(x, out=x)
    return x[-1]


def _ks(lo: int, hi: int) -> np.ndarray:
    """k = lo+1..hi, the 1-based indices of positions lo..hi-1, as long doubles."""
    return np.arange(lo + 1, hi + 1, dtype=np.float64).astype(np.longdouble)


def _hp_step(p: float):
    """step(lo, hi): integral_k^(k+1) t^(-2/p) dt for k = lo+1..hi, the weight
    of M(k) in H_p(k+1) - H_p(k)."""
    if not p > 1:
        raise ValueError(f"p must be > 1, got {p}")
    if abs(p - 2.0) < 1e-15:
        def step(lo, hi):
            k = _ks(lo, hi)
            return np.log(k + 1.0) - np.log(k)
    else:
        e = 1.0 - 2.0 / p

        def step(lo, hi):
            # ((k+1)^e - k^e)/e without the cancellation of the difference
            k = np.arange(lo + 1, hi + 1, dtype=np.float64)
            return k ** e * np.expm1(e * np.log1p(1.0 / k)) / e
    return step


def lane_chunks(table: MobiusTable, upto: int, lane: str | None = None,
                p: float = 2.0):
    """Yield (lo, mertens, values) for each CHUNK of positions lo..hi-1 of
    1..upto, straight from the packed table: M(lo+1..hi) as int64, and
    values the chunk of lane "g", "gamma" or "hp" (H_p) as float64, else
    None.

    This is the one stream every lane is summed by: each entry is
    ArithProfile's (mertens, g_float, gamma_float, hp_values(p, upto)), and
    only O(CHUNK) memory is alive beyond the table.
    """
    if not 1 <= upto <= table.limit:
        raise ValueError(f"upto={upto} outside table range [1, {table.limit}]")
    if lane not in (None, "g", "gamma", "hp"):
        raise ValueError(f"lane must be None, 'g', 'gamma' or 'hp', got {lane!r}")
    step = _hp_step(p) if lane == "hp" else None
    m_carry, carry = 0, np.longdouble(0.0)
    for lo in range(0, upto, CHUNK):
        hi = min(lo + CHUNK, upto)
        mu = _unpack(table.packed[lo // 4:(hi + 3) // 4], hi - lo)
        mert = mu.astype(np.int64)
        m_carry = _fold(mert, m_carry)
        values = None
        if lane == "g":
            x = mu.astype(np.longdouble) / _ks(lo, hi)
            carry = _fold(x, carry)
            values = x.astype(np.float64)
        elif lane is not None:
            # x[i] = gamma(lo+i+2) or H_p(lo+i+2): the lane at position lo
            # is the carry coming in
            if lane == "gamma":
                k = _ks(lo, hi)
                x = mert.astype(np.longdouble) / (k * (k + 1.0))
            else:
                x = mert.astype(np.longdouble) * step(lo, hi)
            values = np.empty(hi - lo)
            values[0] = carry
            carry = _fold(x, carry)
            values[1:] = x[:-1]
        yield lo, mert, values


@dataclass(frozen=True)
class ArithProfile:
    """M(1..limit), with the float and exact lanes built on first read."""

    limit: int
    mu_values: np.ndarray        # int8, mu(1..limit)
    mertens: np.ndarray          # int32, M(1..limit)
    table: MobiusTable           # packed mu(1..limit), which every float lane streams

    def _check(self, n: int) -> None:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside profile range [1, {self.limit}]")

    def _lane(self, lane: str, upto: int, p: float = 2.0) -> np.ndarray:
        """lane(1..upto) as float64: the chunks of lane_chunks end to end."""
        out = np.empty(upto)
        for lo, _, values in lane_chunks(self.table, upto, lane, p):
            out[lo:lo + len(values)] = values
        return out

    @cached_property
    def g_float(self) -> np.ndarray:
        """g(1..limit) as float64."""
        return self._lane("g", self.limit)

    @cached_property
    def gamma_float(self) -> np.ndarray:
        """gamma(1..limit) as float64."""
        return self._lane("gamma", self.limit)

    @cached_property
    def _exact(self) -> tuple:
        """g and gamma up to min(limit, EXACT_LIMIT) as Fractions."""
        upto = min(self.limit, EXACT_LIMIT)
        g_exact, gamma_exact = [], []
        acc_g = acc_gamma = Fraction(0)
        for k, mu, m in zip(range(1, upto + 1), self.mu_values[:upto].tolist(),
                            self.mertens[:upto].tolist()):
            if mu:
                acc_g += Fraction(mu, k)
            g_exact.append(acc_g)
            gamma_exact.append(acc_gamma)
            acc_gamma += Fraction(m, k * (k + 1))
        return g_exact, gamma_exact

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
        self._check(upto)
        return self._lane("hp", upto, p)

    def hp(self, n: int, p: float = 2.0) -> float:
        return float(self.hp_values(p, n)[-1])

    def g_exact(self, n: int) -> Fraction:
        return self.exact("g", _in_exact_range(n))

    def gamma_exact(self, n: int) -> Fraction:
        return self.exact("gamma", _in_exact_range(n))

    def exact(self, series: str, n: int) -> Fraction:
        """g(n) or gamma(n) as a Fraction: the exact value up to EXACT_LIMIT,
        beyond it the exact (dyadic) value of the float lane's entry."""
        lane = ("g", "gamma").index(series)
        self._check(n)
        if n > EXACT_LIMIT:
            return Fraction((self.g_float, self.gamma_float)[lane][n - 1])
        return self._exact[lane][n - 1]


def _in_exact_range(n: int) -> int:
    if n > EXACT_LIMIT:
        raise ValueError(f"n={n} beyond exact limit {EXACT_LIMIT}")
    return n


def build_profile(table: MobiusTable) -> ArithProfile:
    """Accumulate M from a sieved Moebius table; the other lanes follow on
    first read."""
    n = table.limit
    check_limit(n)
    mu = table.mu_array()
    # in place: cumsum(mu, dtype=int32) would first cast all of mu to int32
    mertens = mu.astype(np.int32)
    np.cumsum(mertens, out=mertens)
    return ArithProfile(limit=n, mu_values=mu, mertens=mertens, table=table)


def floor_sum_check(profile: ArithProfile, j_max: int) -> bool:
    """Verify sum_{k<=j} mu(k) * floor(j/k) == 1 exactly for all j <= j_max."""
    if j_max > profile.limit:
        raise ValueError(f"j_max={j_max} beyond profile limit {profile.limit}")
    # difference-array form: floor(j/k) increments exactly at multiples of k
    diff = np.zeros(j_max + 1, dtype=np.int64)
    for k in np.flatnonzero(profile.mu_values[:j_max]).tolist():
        diff[k + 1::k + 1] += profile.mu_values[k]
    return bool(np.all(np.cumsum(diff[1:]) == 1))


def decomposition_checks(profile: ArithProfile, n_max: int) -> tuple[bool, bool]:
    """(g(n) == M(n)/n + gamma(n) exactly, the float gamma lane within its
    rounding bound of gamma(n)) for every n <= n_max.

    Both stream integer numerators over L = lcm(1..n_max), O(n_max) bits
    each: G = L g(n) = sum_{k<=n} mu(k) L/k, and Gam = L gamma(n) =
    sum_{k<n} M(k) (L/k - L/(k+1)) from the piecewise integral of M t^-2.
    The float lane rounds each term t_k = M(k)/(k(k+1)) and each partial
    sum once in long double, then the result to float64, so it lies within
    eps_ld sum_{k<n} (|t_k| + |gamma(k+1)|) + eps64 |gamma(n)| of Gam/L
    rounded: each eps is twice the unit roundoff, so eps64 covers the two
    last roundings and half of eps_ld the second-order terms.
    """
    if n_max > profile.limit:
        raise ValueError(f"n_max={n_max} beyond profile limit {profile.limit}")
    gamma = profile.gamma_float[:n_max]
    k = np.arange(1, n_max, dtype=np.float64)
    bound = np.finfo(np.float64).eps * np.abs(gamma)
    bound[1:] += np.finfo(np.longdouble).eps * np.cumsum(
        np.abs(profile.mertens[:len(k)]) / (k * (k + 1.0)) + np.abs(gamma[1:]))
    big_l = math.lcm(*range(1, n_max + 1))
    g_num = gam_num = 0
    m_prev = q_prev = 0               # M(n-1) and L/(n-1)
    exact_ok = float_ok = True
    lanes = (profile.mu_values[:n_max].tolist(), profile.mertens[:n_max].tolist(),
             gamma.tolist(), bound.tolist())
    for n, mu, m, gam, err in zip(range(1, n_max + 1), *lanes):
        q = big_l // n
        gam_num += m_prev * (q_prev - q)
        g_num += mu * q
        exact_ok = exact_ok and g_num == m * q + gam_num
        float_ok = float_ok and abs(gam - gam_num / big_l) <= err
        m_prev, q_prev = m, q
    return exact_ok, float_ok
