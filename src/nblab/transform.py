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
from functools import cached_property
from numbers import Rational

import numpy as np

from .arith import ArithProfile
from .beurling import Lanes
from .special import _U, _up, float_up, log_factorial


def _phi(num, den, x) -> np.ndarray:
    """Phi(num_k / (den_k x)) for int arrays num, den of dtype object.  For
    rational x each floor is a floor division of Python ints, exact with no
    int64 overflow at any size; for float x, np.floor of the quotient."""
    if isinstance(x, Rational):
        x = Fraction(x)
        top, bottom = num * x.denominator, den * x.numerator
        y = np.asarray(top / bottom, dtype=np.float64)
        m = np.asarray(top // bottom, dtype=np.float64)
    else:
        y = num.astype(np.float64) / (den.astype(np.float64) * float(x))
        m = np.floor(y)
    return np.where(m >= 1.0, m * np.log(y) - log_factorial(m), 0.0)


class TStep:
    """T of a step weight on (0, 1]:

        Tf(x) = inv_coeff/x + sum_k w_k Phi(theta_k/x),

    since a piece of height h on (u1, u2] contributes
    h ((u2 - u1)/x - Phi(u2/x) + Phi(u1/x)).  A subclass provides
    phi_terms, the integer weights w_k and rational thetas 0 < theta_k <= 1,
    inv_coeff, and sup_bound >= |Tf|, as attributes or properties; the norm
    engine flattens phi_lanes, the same terms as lanes, which a subclass
    may hold instead of deriving them.
    """

    def __call__(self, x) -> float:
        if x <= 0:
            raise ValueError(f"argument must be positive, got {x}")
        w, num, den = self._lanes
        return self.inv_coeff / float(x) + float(np.dot(w, _phi(num, den, x)))

    @cached_property
    def phi_lanes(self) -> Lanes:
        return Lanes.of_terms(self.phi_terms)

    @cached_property
    def _lanes(self) -> tuple:
        lanes = self.phi_lanes
        return (lanes.coeff.astype(np.float64), lanes.num.astype(object),
                lanes.den.astype(object))


class Gn(TStep):
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
        self.inv_coeff = profile.gamma(n)
        self.m_tail = profile.M(n - 1) if n > 1 else 0
        w = np.empty(n, dtype=np.int64)
        np.negative(profile.mu_values[:n - 1], out=w[:n - 1])
        w[-1] = self.m_tail
        k = np.flatnonzero(w) + 1
        self.phi_lanes = Lanes(w[k - 1], np.ones(len(k), dtype=np.int64), k, {})

    @property
    def phi_terms(self) -> list:
        lanes = self.phi_lanes
        return [(w, Fraction(1, k)) for w, k in zip(lanes.coeff.tolist(), lanes.den.tolist())]

    @property
    def sup_bound(self) -> float:
        """A double at or above S = sum_{k<n} |M(k)| log((k+1)/k), and
        |G_n| <= S everywhere.

        |M(k)| <= k is an exact double; 1/k and the product round within
        u = 2^-53 and log1p within an ulp, so each of the n - 1 terms is
        within 4u of its own size, and a dot product of them in any order
        within (n - 2) u of their sum (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., ch. 4)."""
        if self.n == 1:
            return 0.0
        k = np.arange(1, self.n, dtype=np.float64)
        total = float(np.dot(np.abs(self.profile.mertens[:self.n - 1]).astype(np.float64),
                             np.log1p(1.0 / k)))
        return _up(total + (self.n + 4) * _U * total)


class TIndicator(TStep):
    """T applied to the indicator of [a, b], 0 < a < b <= 1."""

    def __init__(self, a, b):
        a, b = Fraction(a), Fraction(b)
        if not 0 < a < b <= 1:
            raise ValueError(f"need 0 < a < b <= 1, got a={a}, b={b}")
        self.a, self.b = a, b
        self.phi_terms = [(-1, b), (1, a)]
        self.inv_coeff = float(b - a)
        self.sup_bound = float_up((b - a) / a)


def mobius_log_identity(x, profile: ArithProfile):
    """Both sides of  chi_(1,inf)(x) log x = integral_1^x M(t) floor(x/t) dt/t.

    The right-hand side is sum_{k <= x} M(k) (Phi(x/k) - Phi(x/(k+1))),
    with exact floors for rational x; returns (lhs, rhs, |lhs - rhs|).
    """
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    xf = float(x)
    lhs = math.log(xf) if xf > 1.0 else 0.0
    kmax = math.floor(x)
    if kmax > profile.limit:
        raise ValueError(f"x={x} beyond profile limit {profile.limit}")
    # Phi(x/k) = Phi(1/(k/x)); Phi(x/(kmax+1)) = 0 closes the last difference
    k = np.arange(1, kmax + 2, dtype=object)
    phi = _phi(np.ones_like(k), k, 1 / (Fraction(x) if isinstance(x, Rational) else xf))
    rhs = math.fsum((profile.mertens[:kmax] * (phi[:-1] - phi[1:])).tolist())
    return lhs, rhs, abs(lhs - rhs)
