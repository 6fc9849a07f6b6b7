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

import numpy as np
from scipy.special import digamma

from .arith import ArithProfile
from .beurling import BeurlingSum, rho
from .norms import (_LD_EPS, FLATTEN_BUDGET, BudgetError, NormReport,
                    _gl_nodes, lp_distance)
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
    return apply_u(f).head_constant


def u_l2_norm(usum: USum, x_max: float) -> NormReport:
    """Certified L_2 norm of a transformed sum over (0, infinity).

    On (0, x_max] the function is piecewise P + Q/x with the global constant
    P = head and Q dropping by d_k at each lattice point j theta_k, so the
    squared integral is exact per segment.  Beyond x_max only the envelope
    bound (sum |d_k|)/x is used, contributing at most envelope^2 / x_max.
    """
    if x_max <= 0:
        raise ValueError(f"far cutoff must be positive, got {x_max}")
    total = sum(int(x_max / float(t)) for _, t in usum.terms)
    if total > FLATTEN_BUDGET:
        raise BudgetError(
            f"{total} breakpoints exceed budget {FLATTEN_BUDGET}; "
            "reduce the far cutoff or the number of terms")

    p_head = float(usum.head_constant)
    xs_parts, dq_parts = [], []
    for d, t in usum.terms:
        tf, df = float(t), float(d)
        j = np.arange(1, int(x_max / tf) + 1, dtype=np.float64)
        xs_parts.append(j * tf)
        dq_parts.append(np.full(len(j), -df))
    if xs_parts:
        xs = np.concatenate(xs_parts)
        dq = np.concatenate(dq_parts)
        order = np.argsort(xs, kind="stable")
        xs, dq = xs[order], dq[order]
    else:
        xs = np.empty(0)
        dq = np.empty(0)

    n_seg = len(xs) + 1
    los = np.empty(n_seg)
    his = np.empty(n_seg)
    los[0] = 0.0
    los[1:] = xs
    his[:-1] = xs
    his[-1] = x_max
    q = np.empty(n_seg)
    q[0] = 0.0
    q_cum = np.cumsum(dq.astype(np.longdouble))
    q[1:] = q_cum.astype(np.float64)

    keep = his > los
    los, his, q = los[keep], his[keep], q[keep]
    d = his - los
    power = p_head * p_head * x_max
    if len(los) > 1:
        lo1, hi1, q1, d1 = los[1:], his[1:], q[1:], d[1:]
        power += float(np.sum(2.0 * p_head * q1 * np.log1p(d1 / lo1)))
        power += float(np.sum(q1 * q1 * d1 / (lo1 * hi1)))

    # a drift-sized error in Q perturbs the value by drift/x, so the induced
    # power error integrates to 2 vmax drift log(x_max / first breakpoint);
    # |Uf| itself never exceeds the envelope over the first breakpoint
    drift = len(xs) * _LD_EPS * (float(np.max(np.abs(q_cum))) + 1.0) if len(xs) else 0.0
    if len(los) > 1:
        x1 = float(los[1])
        vmax = max(abs(p_head), usum.envelope / x1)
        quad_err = 2.0 * vmax * drift * math.log(x_max / x1)
    else:
        quad_err = 0.0

    tail_high = usum.envelope ** 2 / x_max
    value = math.sqrt(max(power, 0.0))
    return NormReport(p=2.0, value=value, tail_low=0.0, tail_high=tail_high,
                      quad_error=quad_err, segments=len(los), far_tail=0.0,
                      power_value=power)


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

    The two sides are computed by unrelated code paths (the piecewise
    hyperbolic engine near zero versus the lattice-of-multiples engine up to
    x_max), so agreement within the combined certificates exercises both.
    """
    cut = min(eps, float(f.min_theta) / 2.0)
    src = lp_distance(f, None, 2.0, cut) if f.terms else _zero_report()
    img = u_l2_norm(apply_u(f), x_max)
    disc = abs(src.value - img.value)
    tol = (src.upper - src.lower) + (img.upper - img.lower) + 1e-12
    return IsometryReport(source=src, image=img, discrepancy=disc,
                          tolerance=tol, satisfied=disc <= tol)


def _zero_report() -> NormReport:
    return NormReport(p=2.0, value=0.0, tail_low=0.0, tail_high=0.0,
                      quad_error=0.0, segments=0, far_tail=0.0, power_value=0.0)


def u_chi(x):
    """The image of the unit-interval indicator: sin(2 pi x)/(pi x)."""
    return 2.0 * np.sinc(2.0 * np.asarray(x, dtype=np.float64))


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
    """(integral_0^(1/n) |sin(2 pi x)/(pi x) + M(n)|^2 dx, error estimate).

    The integrand is entire, so Gauss-Legendre converges fast; the error is
    estimated by doubling the order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m_n = float(profile.M(n))
    hi = 1.0 / n

    def quad(order: int) -> float:
        x0, w0 = _gl_nodes(order)
        nodes = 0.5 * hi * (x0 + 1.0)
        vals = (u_chi(nodes) + m_n) ** 2
        return 0.5 * hi * float(vals @ w0)

    v64, v128 = quad(64), quad(128)
    return v128, abs(v128 - v64)


def gn_chain_lower(n: int, profile: ArithProfile) -> float:
    """The scale n^(-1/2) |H_2(n)| of the near-zero lower-bound chain.

    The chain carries an unspecified positive constant, so this quantity is
    informational: it is reported alongside certified norms, never used as
    a pass/fail threshold.
    """
    return abs(ut_head(n, profile)) / math.sqrt(n)
