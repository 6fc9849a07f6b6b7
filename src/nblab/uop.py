"""The dilation-commuting L_2 isometry on explicit formulas.

On a finite sum f = sum c_k rho(theta_k / x) the isometry acts term by term,
c_k rho(theta_k/x) -> (c_k theta_k / x) rho(x / theta_k), so Uf is carried
around as the coefficient list d_k = c_k theta_k.  On (0, min theta_k) every
rho is in its linear range and Uf collapses to the head constant sum c_k.
The image of the unit-interval indicator is sin(2 pi x)/(pi x).  Nothing
here extends U beyond these explicit formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from scipy.special import digamma, sici

from . import beurling
from .arith import ArithProfile
from .beurling import BeurlingSum, rho
from .norms import BudgetError, NormReport, lp_distance
from .transform import EULER_GAMMA


@dataclass(frozen=True)
class USum:
    """(1/x) sum d_k rho(x / theta_k) with d_k = c_k theta_k.

    Bounded by (sum |d_k|)/x everywhere; constant (the head) below the
    smallest theta.
    """

    terms: tuple  # of (d_k, theta_k: Fraction), descending theta

    @property
    def head_constant(self):
        """sum c_k = sum d_k / theta_k, the exact value on (0, min theta)."""
        return sum((d / t for d, t in self.terms), start=Fraction(0))

    @property
    def envelope(self) -> float:
        return float(sum(abs(d) for d, _ in self.terms))

    def __call__(self, x):
        if x <= 0:
            raise ValueError(f"argument must be positive, got {x}")
        if isinstance(x, Rational) and not isinstance(x, float):
            x = Fraction(x)
            return sum((d * rho(x / t) for d, t in self.terms), start=Fraction(0)) / x
        x = float(x)
        return math.fsum(float(d) * rho(x / float(t)) for d, t in self.terms) / x


def apply_u(f: BeurlingSum) -> USum:
    """Term-wise image of a finite sum under the isometry."""
    return USum(tuple((c * t, t) for c, t in f.terms))


def head_constant(f: BeurlingSum):
    """sum c_k, exact from the coefficient lanes; with a float coefficient,
    summed over the image as USum.head_constant does."""
    if f.lanes.has_float:
        return apply_u(f).head_constant
    return f.lanes.coeff_sum()


def head_check(family: str, n: int, profile: ArithProfile):
    """(expected, actual, ok) for the head constant of a family at n: exact
    up to EXACT_LIMIT, within 1e-9 beyond; gn compares ut_head with
    ut_direct at 1/(2n), and rn is only measured."""
    if family == "gn":
        expected, actual = ut_head(n, profile), ut_direct(n, profile, 1.0 / (2 * n))
        return expected, actual, math.isclose(expected, actual, rel_tol=1e-10, abs_tol=1e-10)
    actual = head_constant(beurling.make_family(family, n, profile))
    if family == "sn":
        expected = Fraction(profile.M(n))
    elif family == "vn":
        expected = profile.M(n) - profile.exact_or_float("g", n)
    elif family == "bn":
        expected = -n * profile.exact_or_float("gamma", n)
    elif family == "fn":
        expected = Fraction(profile.M(n) - 1)     # 0 at n = 1, where M(1) = 1
    else:
        return actual, actual, True
    ok = (expected == actual if isinstance(expected, Fraction) else
          math.isclose(float(expected), float(actual), rel_tol=1e-9, abs_tol=1e-12))
    return expected, actual, ok


def u_l2_norm(usum: USum, x_max: float) -> NormReport:
    """Certified L_2 norm of a transformed sum over (0, infinity).

    With t the smallest theta, x = t/y turns the integral of |Uf|^2 over
    (0, x_max] into t^-1 times that of h^2 over (t/x_max, infinity), where
    h = sum d_k rho((t/theta_k)/y) is a class-B Beurling sum, which the norm
    engine integrates exactly.  Its far tail (t head/y)^2 is the constant
    head on (0, t); its near-zero bound (sum |d_k|)^2 t/x_max becomes
    tail_high, the envelope bound (sum |d_k|)/x integrated beyond x_max.
    """
    thetas = [theta for _, theta in usum.terms] or [Fraction(1)]
    t, top = min(thetas), max(thetas)
    if not x_max > top:
        raise ValueError(
            f"far cutoff must exceed the largest theta {float(top)}, got {x_max}")
    h = BeurlingSum.make([(d, t / theta) for d, theta in usum.terms])
    rep = lp_distance(h, None, 2.0, float(t) / x_max)
    scale = float(1 / t)
    power = rep.power_value * scale
    return NormReport(p=2.0, value=math.sqrt(max(power, 0.0)), tail_low=0.0,
                      tail_high=rep.tail_low * scale,
                      quad_error=rep.quad_error * scale, segments=rep.segments,
                      far_tail=0.0, power_value=power)


@dataclass(frozen=True)
class IsometryReport:
    source: NormReport
    image: NormReport
    discrepancy: float
    tolerance: float
    satisfied: bool


def isometry_check(f: BeurlingSum, x_max: float = 1e4,
                   eps: float = 1e-6) -> IsometryReport:
    """Compare ||f||_2 with the certified ||Uf||_2 interval.

    Both sides run on the norm engine, but on different lattices: f on
    {theta_k / j} near zero, the image (through x = t/y) on
    {(t / theta_k) / j}, so agreement within the combined certificates is
    a nontrivial test of the isometry.  The independent oracles are the
    quadrature tests of u_l2_norm.
    """
    cut = min(eps, float(f.min_theta) / 2.0)
    src = lp_distance(f, None, 2.0, cut)
    img = u_l2_norm(apply_u(f), x_max)
    disc = abs(src.value - img.value)
    tol = (src.upper - src.lower) + (img.upper - img.lower) + 1e-12
    return IsometryReport(source=src, image=img, discrepancy=disc,
                          tolerance=tol, satisfied=disc <= tol)


def rho_tail_integral(y: float) -> float:
    """integral_1^y rho(u) u^-2 du = log y - H_floor(y) + floor(y)/y.

    Extended below 1 by the same formula (there rho(u) = u and the value is
    log y); the limit at infinity is 1 - euler_gamma.
    """
    if y <= 0:
        raise ValueError(f"argument must be positive, got {y}")
    m = math.floor(y)
    if m < 1:
        return math.log(y)
    harmonic = float(digamma(m + 1)) + EULER_GAMMA
    return math.log(y) - harmonic + m / y


def ut_head(n: int, profile: ArithProfile) -> float:
    """Constant value near zero of the transformed truncated Mertens weight.

    Equals H_2(n) = integral_1^n M(t) dt/t.
    """
    return profile.hp(n)


def ut_direct(n: int, profile: ArithProfile, x: float) -> float:
    """Direct evaluation of the transformed weight at x > 0.

    (1/x) integral_{1/n}^1 M(1/theta) rho(x/theta) dtheta reduces piecewise
    to sum_{k<n} M(k) (Psi(x(k+1)) - Psi(xk)) with Psi the rho-tail
    primitive; for x < 1/n every Psi argument is below 1 and the sum
    telescopes to H_2(n).
    """
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    if n > profile.limit:
        raise ValueError(f"n={n} beyond profile limit {profile.limit}")
    parts = []
    for k in range(1, n):
        m = profile.M(k)
        if m:
            parts.append(m * (rho_tail_integral(x * (k + 1)) - rho_tail_integral(x * k)))
    return math.fsum(parts)


def usn_lower_integral(n: int, profile: ArithProfile) -> tuple[float, float]:
    """(integral_0^(1/n) |sin(2 pi x)/(pi x) + M(n)|^2 dx, rounding bound).

    With h = 1/n and M = M(n) the integral is, in closed form,
    (2 pi Si(4 pi h) - sin^2(2 pi h)/h)/pi^2 + 2 M Si(2 pi h)/pi + M^2 h.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m_n = float(profile.M(n))
    h = 1.0 / n
    si_2, si_4 = float(sici(2.0 * math.pi * h)[0]), float(sici(4.0 * math.pi * h)[0])
    parts = [(2.0 * math.pi * si_4 - math.sin(2.0 * math.pi * h) ** 2 / h) / math.pi ** 2,
             2.0 * m_n * si_2 / math.pi,
             m_n * m_n * h]
    return math.fsum(parts), 16.0 * math.ulp(1.0) * math.fsum(abs(v) for v in parts)


def gn_chain_lower(n: int, profile: ArithProfile) -> float:
    """The scale n^(-1/2) |H_2(n)| of the near-zero lower-bound chain.

    The chain carries an unspecified positive constant, so this quantity is
    informational: it is reported alongside certified norms, never used as
    a pass/fail threshold.
    """
    return abs(ut_head(n, profile)) / math.sqrt(n)
