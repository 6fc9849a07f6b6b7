"""Finite Beurling sums sum_k c_k rho(theta_k / x) and the standard families.

theta_k are exact rationals in (0, 1]; coefficients are exact rationals
whenever the arithmetic profile still carries exact values of g(n), floats
beyond that.  A sum is stored as integer lanes (Lanes): the families fill
them straight from the profile's arrays, and the (coeff, theta) tuples are
a view derived on first read.  make merges equal thetas of outside input so
class membership (the tail coefficient sum c_k theta_k) is decided exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from .arith import ArithProfile

# integer coefficients below this in size live in the int64 lane, so a sum
# of up to 2^32 of them, or one times a theta numerator below 2^32, fits
_COEFF_LIMIT = 2 ** 31
# theta numerators and denominators below this are int64: exact doubles, so
# their float64 quotient rounds once, as float(Fraction) does
_THETA_LIMIT = 2 ** 53
# fixed-point bits of the tail test, and its long-division digit
_TAIL_BITS, _DIGIT = 120, 30


def rho(u):
    """Fractional part; exact for rational input."""
    return u - math.floor(u)


def pairwise_sum(values):
    """Sum by a balanced tree, streamed: for rationals the running sum's
    value, but each addition meets operands of like size, so n small
    fractions cost far less than O(n^2) digit operations."""
    partial = []                     # sums of 2^j values, j descending
    for i, v in enumerate(values, 1):
        while not i & 1:             # v completes one run per trailing zero of i
            v, i = partial.pop() + v, i >> 1
        partial.append(v)
    return sum(reversed(partial), start=Fraction(0))


def _in_int_lane(c) -> bool:
    return isinstance(c, Rational) and c.denominator == 1 and abs(c) < _COEFF_LIMIT


def _theta_lane(values) -> np.ndarray:
    """int64 when every entry is below _THETA_LIMIT, else Python ints."""
    if max(values, default=0) < _THETA_LIMIT:
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Lanes:
    """Terms c_k at theta_k = num_k / den_k (lowest terms), as arrays.

    coeff holds c_k when it is an integer below _COEFF_LIMIT in size, else
    0; irregular maps each other index to its coefficient, a non-integer
    Fraction or a float (g(n) folded in beyond EXACT_LIMIT).
    """

    coeff: np.ndarray                # int64
    num: np.ndarray
    den: np.ndarray
    irregular: dict

    @staticmethod
    def of_terms(terms) -> "Lanes":
        coeff, irregular = [], {}
        for i, (c, _) in enumerate(terms):
            if _in_int_lane(c):
                coeff.append(int(c))
            else:
                coeff.append(0)
                irregular[i] = c
        return Lanes(np.array(coeff, dtype=np.int64),
                     _theta_lane([t.numerator for _, t in terms]),
                     _theta_lane([t.denominator for _, t in terms]), irregular)

    def __len__(self) -> int:
        return len(self.coeff)

    def coefficients(self) -> list:
        """c_k in order: Python ints for the int64 lane, the irregular as stored."""
        out = self.coeff.tolist()
        for i, c in self.irregular.items():
            out[i] = c
        return out

    @cached_property
    def terms(self) -> tuple:
        """(c_k, theta_k) with Fraction thetas, and Fractions for the int64 lane."""
        coeffs = [c if i in self.irregular else Fraction(c)
                  for i, c in enumerate(self.coefficients())]
        thetas = map(Fraction, self.num.tolist(), self.den.tolist())
        return tuple(zip(coeffs, thetas))

    def thetas(self) -> np.ndarray:
        """theta_k as float64, each rounded once."""
        if self.num.dtype == object:
            return np.array(self.num / self.den, dtype=np.float64)
        return self.num / self.den

    @property
    def has_float(self) -> bool:
        return any(isinstance(c, float) for c in self.irregular.values())

    def negated(self) -> "Lanes":
        return Lanes(-self.coeff, self.num, self.den,
                     {i: -c for i, c in self.irregular.items()})

    def concat(self, other: "Lanes") -> "Lanes":
        shift = len(self)
        return Lanes(np.concatenate([self.coeff, other.coeff]),
                     np.concatenate([self.num, other.num]),
                     np.concatenate([self.den, other.den]),
                     {**self.irregular,
                      **{i + shift: c for i, c in other.irregular.items()}})

    def coeff_sum(self) -> Fraction:
        """sum c_k, exact; needs every coefficient rational."""
        return int(self.coeff.sum()) + pairwise_sum(self.irregular.values())

    def abs_sum(self) -> float:
        """float(sum |c_k|): the exact sum rounded once, or with a float
        coefficient the tree of pairwise_sum over the terms in order."""
        if self.has_float:
            return float(pairwise_sum(abs(c) for c in self.coefficients()))
        return float(int(np.abs(self.coeff).sum())
                     + pairwise_sum(abs(c) for c in self.irregular.values()))

    def tail_float(self) -> float:
        """float(sum c_k theta_k) without a rational sum where possible.

        With P = _TAIL_BITS, S = sum floor(c_k num_k 2^P / den_k) is exact
        in integers, and each floor drops less than 1, so the sum lies in
        [S, S + B) / 2^P for B terms.  When both ends round to one double,
        that double is the sum rounded once.  Otherwise (an exact zero, a
        tie, a sum too small for P bits, lanes too wide for int64, a float
        coefficient) the sum is
        pairwise_sum over the products c_k theta_k in order, as a rational
        or, with a float coefficient, in the same float operations as ever.
        """
        s = None if self.has_float else self._scaled_floor_sum()
        if s is not None:
            lo, hi = s / (1 << _TAIL_BITS), (s + len(self)) / (1 << _TAIL_BITS)
            if lo == hi:
                return lo
        products = (c * (num / den) if isinstance(c, float)
                    else Fraction(c.numerator * num, c.denominator * den)
                    for c, num, den in zip(self.coefficients(), self.num.tolist(),
                                           self.den.tolist()))
        return float(pairwise_sum(products))

    def _scaled_floor_sum(self):
        """S of tail_float, or None when a factor is too wide.  Writing
        c_k = p/q, each floor is a long division of p num by q den, taken
        over the int64 lanes in 30-bit digits."""
        ps = [c.numerator for c in self.irregular.values()]
        qs = [c.denominator for c in self.irregular.values()]
        if (self.num.dtype == object
                or max(int(self.num.max(initial=0)), int(self.den.max(initial=0))) >= 2 ** 32
                or max(map(abs, ps), default=0) >= _COEFF_LIMIT
                or max(qs, default=1) >= _COEFF_LIMIT):
            return None
        p, d = self.coeff.copy(), self.den.copy()
        p[list(self.irregular)] = ps
        d[list(self.irregular)] *= np.array(qs, dtype=np.int64)
        if int(d.max(initial=0)) >= 2 ** 32:
            return None
        # |p num| < 2^63, and each shifted remainder below d 2^30 < 2^62
        q, r = np.divmod(p * self.num, d)
        s = sum(q.tolist()) << _TAIL_BITS
        for shift in range(_TAIL_BITS - _DIGIT, -1, -_DIGIT):
            digit, r = np.divmod(r << _DIGIT, d)
            s += int(digit.sum()) << shift
        return s


class GeneratorKind(enum.Enum):
    NEG_CHI = "neg_chi"   # -1 on (0,1], 0 elsewhere
    LAMBDA = "lambda"     # log x on (0,1], 0 elsewhere


@dataclass(frozen=True)
class Generator:
    kind: GeneratorKind

    def __call__(self, x: float) -> float:
        if not 0.0 < x <= 1.0:
            return 0.0
        return -1.0 if self.kind is GeneratorKind.NEG_CHI else math.log(x)


NEG_CHI = Generator(GeneratorKind.NEG_CHI)
LAMBDA = Generator(GeneratorKind.LAMBDA)


class BeurlingSum:
    """Canonical finite sum sum_k c_k rho(theta_k / x).

    The terms are sorted by descending theta with distinct thetas and no
    zero coefficients; lanes holds them, and terms, the (coeff, theta:
    Fraction) tuples, is derived from the lanes on first read.  For x
    larger than every theta the sum equals tail_coeff / x.
    """

    def __init__(self, terms=()):
        """From terms already in canonical order (make canonicalizes)."""
        terms = tuple(terms)
        self.lanes = Lanes.of_terms(terms)
        self.lanes.__dict__["terms"] = terms

    @classmethod
    def of_lanes(cls, lanes: Lanes) -> "BeurlingSum":
        f = cls.__new__(cls)
        f.lanes = lanes
        return f

    @property
    def terms(self) -> tuple:
        return self.lanes.terms

    @staticmethod
    def make(terms) -> "BeurlingSum":
        merged: dict[Fraction, object] = {}
        for c, theta in terms:
            theta = Fraction(theta)
            if theta <= 0:
                raise ValueError(f"theta must be positive, got {theta}")
            if isinstance(c, Rational):
                c = Fraction(c)
            merged[theta] = merged.get(theta, 0) + c
        out = tuple(
            (c, theta)
            for theta, c in sorted(merged.items(), key=lambda kv: kv[0], reverse=True)
            if c != 0
        )
        return BeurlingSum(out)

    @property
    def tail_coeff(self):
        """sum c_k theta_k; exact when every coefficient is rational."""
        return pairwise_sum(c * t for c, t in self.terms)

    @property
    def is_class_b(self) -> bool:
        return bool(np.all(self.lanes.num <= self.lanes.den))

    @property
    def is_class_c(self) -> bool:
        return self.is_class_b and self.tail_coeff == 0

    @property
    def sup_bound(self) -> float:
        """sum |c_k|, a pointwise bound since 0 <= rho < 1."""
        return self.lanes.abs_sum()

    @property
    def min_theta(self) -> Fraction:
        lanes = self.lanes
        if not len(lanes):
            return Fraction(1)
        return Fraction(int(lanes.num[-1]), int(lanes.den[-1]))

    def __call__(self, x):
        """Evaluate at x > 0; exact when x and the coefficients are rational."""
        if x <= 0:
            raise ValueError(f"argument must be positive, got {x}")
        if isinstance(x, Rational) and not isinstance(x, float):
            x = Fraction(x)
            return sum((c * rho(t / x) for c, t in self.terms), start=Fraction(0))
        x = float(x)
        return math.fsum(c * rho(float(t) / x) for c, t in self.terms)

    def dilate(self, a) -> "BeurlingSum":
        """K_a f(x) = f(ax), i.e. theta_k -> theta_k / a."""
        if a <= 0:
            raise ValueError(f"dilation factor must be positive, got {a}")
        a = Fraction(a) if isinstance(a, Rational) and not isinstance(a, float) else a
        return BeurlingSum.make([(c, t / a) for c, t in self.terms])


FAMILIES = ("sn", "vn", "bn", "fn", "rn")


def _family(coeff, num, den, irregular: dict) -> BeurlingSum:
    """The sum of the dense lanes in canonical order, zero terms dropped;
    irregular maps dense slots, in order, to their other coefficients."""
    keep = coeff != 0
    keep[list(irregular)] = True
    position = np.cumsum(keep) - 1
    return BeurlingSum.of_lanes(Lanes(
        coeff[keep], num[keep], den[keep],
        {int(position[i]): c for i, c in irregular.items()}))


def _fold(coeff, slot: int, extra) -> dict:
    """Add extra (a Fraction, or a float beyond the exact limit) to coeff at
    slot, in place; the irregular entry the slot then needs, if any."""
    total = int(coeff[slot]) + extra
    if _in_int_lane(total):
        coeff[slot] = int(total)
        return {}
    coeff[slot] = 0
    return {slot: total} if total else {}


def make_family(family: str, n: int, profile: ArithProfile) -> BeurlingSum:
    """Construct one of the standard approximating families.

    sn: sum_{k<=n} mu(k) rho(1/(kx))
    vn: sn - g(n) rho(1/x)
    bn: sn - n g(n) rho(1/(nx))
    fn: sum_{k<=n} (M(n/k) - M(n/(k+1))) rho(k/(nx)) - rho(1/(nx))
    rn: sum_{k<n} (1/k) M(n/k) rho(k/(nx))

    fn and rn with n = 1 give the empty (identically zero) sum.  The lanes
    are filled in canonical order straight from the profile's mu and
    Mertens arrays, each extra vn, bn or fn term folded into its slot.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > profile.limit:
        raise ValueError(f"n={n} beyond profile limit {profile.limit}")

    if family in ("sn", "vn", "bn"):
        coeff = profile.mu_values[:n].astype(np.int64)
        irregular = {}
        if family == "vn":
            irregular = _fold(coeff, 0, -profile.exact_or_float("g", n))
        elif family == "bn":
            irregular = _fold(coeff, n - 1, -n * profile.exact_or_float("g", n))
        k = np.arange(1, n + 1, dtype=np.int64)
        return _family(coeff, np.ones(n, dtype=np.int64), k, irregular)
    mertens = np.concatenate([[0], profile.mertens[:n]]).astype(np.int64)   # M(0..n)
    if family == "fn":
        k = np.arange(n, 0, -1, dtype=np.int64)
        coeff = mertens[n // k] - mertens[n // (k + 1)]
        coeff[-1] -= 1
        irregular = {}
    else:                                                                    # rn
        k = np.arange(n - 1, 0, -1, dtype=np.int64)
        m = mertens[n // k]
        whole = m % k == 0
        coeff = np.where(whole, m // k, 0)
        irregular = {i: Fraction(c, d) for i, c, d in
                     zip(np.flatnonzero(~whole).tolist(), m[~whole].tolist(),
                         k[~whole].tolist())}
    g = np.gcd(k, n)
    return _family(coeff, k // g, n // g, irregular)


def step_values(f: BeurlingSum, n: int) -> list:
    """f(1/j) for j = 1..n, exact."""
    return [f(Fraction(1, j)) for j in range(1, n + 1)]


def recover_coefficients(values) -> list:
    """Solve -f(1/j) = sum_k a_k floor(j/k) for a_1..a_n by forward substitution.

    For the step values of a class-C sum with theta_k = 1/k this recovers the
    coefficients exactly when the inputs are exact.
    """
    n = len(values)
    coeffs: list = []
    for j in range(1, n + 1):
        acc = -values[j - 1]
        for k in range(1, j):
            acc -= coeffs[k - 1] * (j // k)
        coeffs.append(acc)
    return coeffs
