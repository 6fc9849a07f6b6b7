"""The averaging operator Tf(x) = integral f(theta) rho(theta/x) dtheta/theta.

Everything here reduces to the primitive

    Phi(y) = integral_1^y floor(u) du/u = floor(y) log y - log(floor(y)!)

(zero for y <= 1): on a maximal u-interval with floor(u) = m the integrand
contributes m log(u2/u1), and the closed form telescopes.  Floors are taken
in exact rational arithmetic whenever the argument is rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import numpy as np
from scipy.special import gammaln

from .arith import ArithProfile

EULER_GAMMA = 0.5772156649015328606


def floor_log_integral(y) -> float:
    """Phi(y) = integral_1^y floor(u) du/u, exact floor for rational y."""
    m = math.floor(y)
    if m < 1:
        return 0.0
    return m * math.log(y) - math.lgamma(m + 1)


class Gn:
    """The transform of the truncated Mertens step weight.

    Pointwise values use the summation-by-parts form

        G_n(x) = gamma(n)/x - sum_{k<n} mu(k) Phi(1/(kx)) + M(n-1) Phi(1/(nx)),

    which is O(n) per point.  For x >= 1 the value is exactly gamma(n)/x.
    """

    def __init__(self, n: int, profile: ArithProfile):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > profile.limit:
            raise ValueError(f"n={n} beyond profile limit {profile.limit}")
        self.n = n
        self.profile = profile
        self.gamma_n = profile.gamma(n)
        self.m_tail = profile.M(n - 1) if n > 1 else 0
        self._mu = profile.mu_values[:n - 1].astype(np.float64)

    def __call__(self, x) -> float:
        if x <= 0:
            raise ValueError(f"argument must be positive, got {x}")
        exact = isinstance(x, Rational) and not isinstance(x, float)
        if exact:
            x = Fraction(x)
            total = self.gamma_n / float(x)
            for k in range(1, self.n):
                mu = self.profile.mu(k)
                if mu:
                    total -= mu * floor_log_integral(1 / (k * x))
            total += self.m_tail * floor_log_integral(1 / (self.n * x))
            return total
        x = float(x)
        n = self.n
        if x >= 1.0 or n == 1:
            return self.gamma_n / x
        k = np.arange(1, n, dtype=np.float64)
        y = 1.0 / (k * x)
        m = np.floor(y)
        phi = np.where(m >= 1.0, m * np.log(y) - gammaln(m + 1.0), 0.0)
        return (self.gamma_n / x - float(np.dot(self._mu, phi))
                + self.m_tail * floor_log_integral(1.0 / (n * x)))

    # hooks for the piecewise flattener
    @property
    def phi_terms(self) -> list:
        terms = [(-int(self.profile.mu(k)), Fraction(1, k)) for k in range(1, self.n)]
        terms.append((self.m_tail, Fraction(1, self.n)))
        return [(w, t) for w, t in terms if w != 0]

    @property
    def inv_coeff(self) -> float:
        return self.gamma_n

    @property
    def sup_bound(self) -> float:
        """|G_n| <= sum_{k<n} |M(k)| log((k+1)/k) everywhere."""
        if self.n == 1:
            return 0.0
        k = np.arange(1, self.n, dtype=np.float64)
        return float(np.dot(np.abs(self.profile.mertens[:self.n - 1]).astype(np.float64),
                            np.log((k + 1.0) / k)))


class TIndicator:
    """T applied to the indicator of [a, b], 0 < a < b <= 1, in closed form."""

    def __init__(self, a, b):
        a, b = Fraction(a), Fraction(b)
        if not 0 < a < b <= 1:
            raise ValueError(f"need 0 < a < b <= 1, got a={a}, b={b}")
        self.a = a
        self.b = b

    def __call__(self, x) -> float:
        if x <= 0:
            raise ValueError(f"argument must be positive, got {x}")
        exact = isinstance(x, Rational) and not isinstance(x, float)
        xq = Fraction(x) if exact else float(x)
        lin = float((self.b - self.a) / xq) if exact else float(self.b - self.a) / xq
        return lin - floor_log_integral(self.b / xq) + floor_log_integral(self.a / xq)

    @property
    def phi_terms(self) -> list:
        return [(-1, self.b), (1, self.a)]

    @property
    def inv_coeff(self) -> float:
        return float(self.b - self.a)

    @property
    def sup_bound(self) -> float:
        return float((self.b - self.a) / self.a)


def riemann_sum_T(a, b, n: int):
    """The n-point Riemann sum of T chi_[a,b] as a Beurling sum.

    s_n(x) = ((b-a)/n) sum_k (1/theta_k) rho(theta_k/x),
    theta_k = a + (b-a) k/n.
    """
    from .beurling import BeurlingSum

    a, b = Fraction(a), Fraction(b)
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    h = (b - a) / n
    terms = [(h / (a + h * k), a + h * k) for k in range(1, n + 1)]
    return BeurlingSum.make(terms)


def mobius_log_identity(x, profile: ArithProfile):
    """Both sides of  chi_(1,inf)(x) log x = integral_1^x M(t) floor(x/t) dt/t.

    The right-hand side is evaluated exactly piecewise; returns
    (lhs, rhs, |lhs - rhs|).
    """
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    xf = float(x)
    lhs = math.log(xf) if xf > 1.0 else 0.0
    kmax = math.floor(x)
    if kmax > profile.limit:
        raise ValueError(f"x={x} beyond profile limit {profile.limit}")
    exact = isinstance(x, Rational) and not isinstance(x, float)
    xq = Fraction(x) if exact else xf
    parts = []
    for k in range(1, kmax + 1):
        m = profile.M(k)
        if m == 0:
            continue
        t2 = min(k + 1, xq)
        parts.append(m * (floor_log_integral(xq / k) - floor_log_integral(xq / t2)))
    rhs = math.fsum(parts)
    return lhs, rhs, abs(lhs - rhs)
