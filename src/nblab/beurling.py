"""Finite Beurling sums sum_k c_k rho(theta_k / x) and the standard families.

theta_k are exact rationals in (0, 1]; coefficients are exact rationals
whenever the arithmetic profile still carries exact values of g(n), floats
beyond that.  make merges equal thetas of outside input so class membership
(the tail coefficient sum c_k theta_k) is decided exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .arith import ArithProfile


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


@dataclass(frozen=True)
class BeurlingSum:
    """Canonical finite sum sum_k c_k rho(theta_k / x).

    terms is sorted by descending theta with distinct thetas and no zero
    coefficients.  For x larger than every theta the sum equals
    tail_coeff / x.
    """

    terms: tuple  # of (coeff, theta: Fraction)

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
        return all(t <= 1 for _, t in self.terms)

    @property
    def is_class_c(self) -> bool:
        return self.is_class_b and self.tail_coeff == 0

    @property
    def sup_bound(self) -> float:
        """sum |c_k|, a pointwise bound since 0 <= rho < 1."""
        return float(pairwise_sum(abs(c) for c, _ in self.terms))

    @property
    def min_theta(self) -> Fraction:
        if not self.terms:
            return Fraction(1)
        return self.terms[-1][1]

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


def make_family(family: str, n: int, profile: ArithProfile) -> BeurlingSum:
    """Construct one of the standard approximating families.

    sn: sum_{k<=n} mu(k) rho(1/(kx))
    vn: sn - g(n) rho(1/x)
    bn: sn - n g(n) rho(1/(nx))
    fn: sum_{k<=n} (M(n/k) - M(n/(k+1))) rho(k/(nx)) - rho(1/(nx))
    rn: sum_{k<n} (1/k) M(n/k) rho(k/(nx))

    fn and rn with n = 1 give the empty (identically zero) sum.  The terms
    are emitted in canonical order straight from the profile's mu and
    Mertens arrays, each extra vn, bn or fn term folded into its slot.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > profile.limit:
        raise ValueError(f"n={n} beyond profile limit {profile.limit}")

    if family in ("sn", "vn", "bn"):
        coeffs = profile.mu_values[:n].tolist()
        if family == "vn":
            coeffs[0] -= profile.exact_or_float("g", n)
        elif family == "bn":
            coeffs[-1] -= n * profile.exact_or_float("g", n)
        # the folded slot is already a Fraction, or a float beyond the exact limit
        return BeurlingSum(tuple((Fraction(c) if isinstance(c, int) else c, Fraction(1, k))
                                 for k, c in enumerate(coeffs, 1) if c))
    mertens = [0] + profile.mertens[:n].tolist()        # M(0..n)
    if family == "fn":
        coeffs = ((mertens[n // k] - mertens[n // (k + 1)] - (k == 1), k)
                  for k in range(n, 0, -1))
        return BeurlingSum(tuple((Fraction(c), Fraction(k, n)) for c, k in coeffs if c))
    # rn
    return BeurlingSum(tuple((Fraction(mertens[n // k], k), Fraction(k, n))
                             for k in range(n - 1, 0, -1) if mertens[n // k]))


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
