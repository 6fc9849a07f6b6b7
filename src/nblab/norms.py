"""Certified L_p distances on (0, infinity) via exact piecewise flattening.

A difference  f - generator  is flattened over (eps, 1] into segments on
which it equals exactly  a/x + b + c log x  (a is global: the 1/x tail
coefficient).  Closed forms integrate p = 1 and p = 2; general p uses
Gauss-Legendre with an order-doubling error estimate.  The regions (0, eps)
and (1, inf) are handled by a rigorous sup-bound and by the exact tail
integral of (tail_a / x)^p respectively, so every report is an interval
certified to contain the true norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaincc

from .beurling import BeurlingSum, Generator, GeneratorKind
from .transform import Gn, TIndicator

_LD_EPS = float(np.finfo(np.longdouble).eps)

FLATTEN_BUDGET = 20_000_000


class BudgetError(RuntimeError):
    """Raised when a flatten or far-cutoff sweep would exceed its
    breakpoint budget (and with it the memory of a desk machine)."""


@dataclass(frozen=True)
class PiecewiseHyperbolic:
    """Segments of a/x + b[i] + c[i] log x on (lo[i], hi[i]], ascending in x.

    The segments tile (eps, 1]; on (1, inf) the difference equals tail_a / x
    exactly; on (0, eps) it is bounded by sup_const (+ |log x| when
    has_log_tail).  drift_bound caps the rounding error of the cumulative
    construction of b and c.
    """

    lo: np.ndarray
    hi: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a: float
    eps: float
    sup_const: float
    has_log_tail: bool
    tail_a: float
    drift_bound: float = 0.0

    @property
    def segment_count(self) -> int:
        return len(self.lo)

    def values_at(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise difference at points in (eps, 1]."""
        idx = np.searchsorted(self.lo, x, side="left") - 1
        idx = np.clip(idx, 0, len(self.lo) - 1)
        return self.a / x + self.b[idx] + self.c[idx] * np.log(x)


@dataclass(frozen=True)
class NormReport:
    """A certified ||.||_p value.

    value is the computed norm; tail_low, tail_high and quad_error are
    uncertainty contributions in the units of the p-th power integral, so
    the certified enclosure is [lower, upper].  far_tail records the exact
    (1, inf) contribution already included in value.
    """

    p: float
    value: float
    tail_low: float
    tail_high: float
    quad_error: float
    segments: int
    far_tail: float
    power_value: float

    @property
    def lower(self) -> float:
        if not math.isfinite(self.power_value):
            return math.inf
        return max(self.power_value - self.quad_error, 0.0) ** (1.0 / self.p)

    @property
    def upper(self) -> float:
        if not math.isfinite(self.power_value):
            return math.inf
        return (self.power_value + self.quad_error + self.tail_low
                + self.tail_high) ** (1.0 / self.p)

    @property
    def err(self) -> float:
        if not math.isfinite(self.power_value):
            return math.inf
        return max(self.value - self.lower, self.upper - self.value)


def _gen_offsets(generator: Generator | None) -> tuple[float, float, bool]:
    """(b offset, c offset, log tail flag) of subtracting the generator."""
    if generator is None:
        return 0.0, 0.0, False
    if generator.kind is GeneratorKind.NEG_CHI:
        return 1.0, 0.0, False
    return 0.0, -1.0, True


@dataclass(frozen=True)
class Difference:
    """plus - minus, for flattening the gap between two approximants."""

    plus: object
    minus: object


def _term_spec(f):
    """(rho_terms, phi_terms, inv_coeff, sup_bound, min_theta) of f."""
    if isinstance(f, BeurlingSum):
        return list(f.terms), [], 0.0, f.sup_bound, f.min_theta
    if isinstance(f, (Gn, TIndicator)):
        return [], f.phi_terms, f.inv_coeff, f.sup_bound, f.min_theta
    if isinstance(f, Difference):
        rp, pp, ip, sp, mp = _term_spec(f.plus)
        rm, pm, im, sm, mm = _term_spec(f.minus)
        rho_terms = rp + [(-c, t) for c, t in rm]
        phi_terms = pp + [(-w, t) for w, t in pm]
        return rho_terms, phi_terms, ip - im, sp + sm, min(mp, mm)
    raise TypeError(f"cannot flatten {type(f).__name__}")


def to_piecewise(f, generator: Generator | None, eps: float) -> PiecewiseHyperbolic:
    """Flatten f - generator over (eps, 1] into hyperbolic-log segments.

    Breakpoints are the dilation lattice {theta_k / j}; crossing one from
    above increments floor(theta_k / x), which bumps b (and, for integral
    terms, the log coefficient c) by an exactly known jump.
    """
    rho_terms, phi_terms, inv_coeff, sup_bound, min_theta = _term_spec(f)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1), got {eps}")
    if eps >= float(min_theta):
        raise ValueError(f"cutoff {eps} must be below min theta {float(min_theta)}")

    b0, c0, log_tail = _gen_offsets(generator)
    total = sum(int(float(t) / eps) + 1
                for _, t in list(rho_terms) + list(phi_terms))
    if total > FLATTEN_BUDGET:
        raise BudgetError(
            f"{total} breakpoints exceed budget {FLATTEN_BUDGET}; "
            "raise the cutoff or reduce the number of dilation terms")
    # near zero the generator's constant part survives alongside the sum
    sup_bound = float(sup_bound) + abs(b0)
    # the tail coefficient must vanish exactly for class-C sums, so it is
    # accumulated in exact rational arithmetic when the coefficients allow
    a = float(inv_coeff)
    if rho_terms:
        a += float(sum((c * t for c, t in rho_terms), start=Fraction(0)))
    xs_parts, db_parts, dc_parts = [], [], []
    for coeff, theta in rho_terms:
        cf, tf = float(coeff), float(theta)
        m0 = math.floor(theta)
        b0 -= cf * m0
        j = np.arange(m0 + 1, int(tf / eps) + 2, dtype=np.float64)
        x = tf / j
        keep = x > eps
        xs_parts.append(x[keep])
        db_parts.append(np.full(int(keep.sum()), -cf))
        dc_parts.append(None)
    for w, theta in phi_terms:
        wf, tf = float(w), float(theta)
        m0 = math.floor(theta)
        if m0 >= 1:
            b0 += wf * (m0 * math.log(tf) - math.lgamma(m0 + 1))
            c0 -= wf * m0
        j = np.arange(m0 + 1, int(tf / eps) + 2, dtype=np.float64)
        x = tf / j
        keep = x > eps
        j = j[keep]
        xs_parts.append(x[keep])
        db_parts.append(wf * (math.log(tf) - np.log(j)))
        dc_parts.append(np.full(len(j), -wf))

    if xs_parts:
        xs = np.concatenate(xs_parts)
        db = np.concatenate(db_parts)
        dc_arrays = [np.zeros(len(x)) if d is None else d
                     for x, d in zip(xs_parts, dc_parts)]
        dc = np.concatenate(dc_arrays)
    else:
        xs = np.empty(0)
        db = np.empty(0)
        dc = np.empty(0)

    order = np.argsort(-xs, kind="stable")
    xs, db, dc = xs[order], db[order], dc[order]

    n_seg = len(xs) + 1
    his = np.empty(n_seg)
    los = np.empty(n_seg)
    his[0] = 1.0
    his[1:] = xs
    los[:-1] = xs
    los[-1] = eps
    b_cum = np.cumsum(db.astype(np.longdouble))
    c_cum = np.cumsum(dc.astype(np.longdouble))
    b = np.empty(n_seg)
    c = np.empty(n_seg)
    b[0], c[0] = b0, c0
    b[1:] = b0 + b_cum.astype(np.float64)
    c[1:] = c0 + c_cum.astype(np.float64)
    scale = float(np.max(np.abs(b_cum))) + float(np.max(np.abs(c_cum))) if len(xs) else 0.0
    drift = len(xs) * _LD_EPS * (scale + 1.0)

    return PiecewiseHyperbolic(
        lo=los[::-1].copy(), hi=his[::-1].copy(),
        b=b[::-1].copy(), c=c[::-1].copy(), a=a,
        eps=eps, sup_const=float(sup_bound), has_log_tail=log_tail,
        tail_a=a, drift_bound=drift,
    )


def _near_zero_tail(pw: PiecewiseHyperbolic, p: float) -> float:
    """Bound integral_0^eps |difference|^p dx."""
    e, cst = pw.eps, pw.sup_const
    if not pw.has_log_tail:
        return cst ** p * e
    # Minkowski: ||C + |log x|||_p <= C e^(1/p) + (integral |log|^p)^(1/p);
    # the log integral is the upper incomplete gamma Gamma(p+1, -log eps)
    l0 = -math.log(e)
    log_part = float(gammaincc(p + 1.0, l0)) * math.exp(math.lgamma(p + 1.0))
    return (cst * e ** (1.0 / p) + log_part ** (1.0 / p)) ** p


def _antideriv_sq(a, b, c, lo, hi):
    """integral_lo^hi (a/x + b + c log x)^2 dx, in difference form per segment."""
    d = hi - lo
    lr = np.log1p(d / lo)               # log(hi/lo)
    llo = np.log(lo)
    lhi = np.log(hi)
    out = a * a * d / (lo * hi)
    out += 2.0 * a * b * lr
    out += a * c * lr * (lhi + llo)     # a c (log^2 hi - log^2 lo)
    out += b * b * d
    out += 2.0 * b * c * (hi * (lhi - 1.0) - lo * (llo - 1.0))
    out += c * c * (hi * (lhi * lhi - 2.0 * lhi + 2.0) - lo * (llo * llo - 2.0 * llo + 2.0))
    return out


def _signed_integral(a, b, c, u, w):
    """integral_u^w (a/x + b + c log x) dx, difference form."""
    return a * np.log1p((w - u) / u) + b * (w - u) + c * (w * (np.log(w) - 1.0) - u * (np.log(u) - 1.0))


def _value(a, b, c, x):
    return a / x + b + c * np.log(x)


def _value_bound(a, b, c, lo, hi) -> float:
    """sup |a/x + b + c log x| over the segments, from endpoints and the
    single interior critical point x = a/c of each piece."""
    vmax = float(np.max(np.abs(_value(a, b, c, lo))))
    vmax = max(vmax, float(np.max(np.abs(_value(a, b, c, hi)))))
    has = c != 0.0
    if np.any(has):
        with np.errstate(divide="ignore", invalid="ignore"):
            crit = np.where(has, a / np.where(has, c, 1.0), np.nan)
        inner = has & (crit > lo) & (crit < hi)
        if np.any(inner):
            vmax = max(vmax, float(np.max(np.abs(
                _value(a, b[inner], c[inner], crit[inner])))))
    return vmax


_ROOT_TOL = 1e-14


def _abs_integral_l1(a, b, c, lo, hi):
    """(integral of |a/x + b + c log x| over the segments, root-slip bound).

    Each segment is split at the lone critical point x = a/c when interior,
    leaving monotone pieces with at most one sign change each; roots are
    closed-form where possible, else resolved by vectorized bisection.
    """
    # split at interior critical points
    has_crit = (c != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = np.where(has_crit, a / np.where(has_crit, c, 1.0), np.nan)
    interior = has_crit & (crit > lo) & (crit < hi)

    u = np.concatenate([lo, crit[interior]])
    w = np.concatenate([np.where(interior, crit, hi), hi[interior]])
    bb = np.concatenate([b, b[interior]])
    cc = np.concatenate([c, c[interior]])

    vu = _value(a, bb, cc, u)
    vw = _value(a, bb, cc, w)
    full = _signed_integral(a, bb, cc, u, w)
    same = vu * vw >= 0.0
    total = np.abs(np.where(same, full, 0.0))

    mix = ~same
    err = 0.0
    if np.any(mix):
        um, wm, bm, cm = u[mix], w[mix], bb[mix], cc[mix]
        vum = vu[mix]
        root = np.empty(len(um))
        # closed forms: c = 0 -> -a/b ; a = 0 -> exp(-b/c)
        c0 = cm == 0.0
        a0 = (~c0) & (a == 0.0)
        gen = ~(c0 | a0)
        if np.any(c0):
            root[c0] = -a / bm[c0]
        if np.any(a0):
            root[a0] = np.exp(-bm[a0] / cm[a0])
        if np.any(gen):
            glo, ghi = um[gen].copy(), wm[gen].copy()
            gsign = np.sign(vum[gen])
            gb, gc = bm[gen], cm[gen]
            for _ in range(60):
                mid = 0.5 * (glo + ghi)
                vm = _value(a, gb, gc, mid)
                left = np.sign(vm) == gsign
                glo = np.where(left, mid, glo)
                ghi = np.where(left, mid, ghi)
                if np.max(ghi - glo) < _ROOT_TOL:
                    break
            root[gen] = 0.5 * (glo + ghi)
        root = np.clip(root, um, wm)
        left = _signed_integral(a, bm, cm, um, root)
        right = _signed_integral(a, bm, cm, root, wm)
        total[mix] = np.abs(left) + np.abs(right)
        # a root off by tol contributes at most |v'| * tol^2 ~ vmax * tol
        vmax = np.max(np.abs(np.concatenate([vu, vw])))
        err = len(um) * _ROOT_TOL * vmax
    return float(np.sum(total)), float(err)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(order: int):
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def _quad_abs_p(a, b, c, lo, hi, p, order):
    x0, w0 = _gl_nodes(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x0[None, :]
    vals = np.abs(_value(a, b[:, None], c[:, None], nodes)) ** p
    return half * (vals @ w0)


def lp_norm(pw: PiecewiseHyperbolic, p: float,
            include_far: bool | None = None) -> NormReport:
    """Certified ||difference||_p over (0, infinity) or (0, 1].

    include_far selects whether the exact (1, infinity) contribution of the
    A/x tail is added.  The default follows the canonical embedding used for
    the limit statements: included for p > 1, omitted for p = 1 (where a
    nonvanishing tail makes the full-line integral infinite and the claims
    are about the unit interval).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if include_far is None:
        include_far = p > 1.0
    lo, hi, b, c, a = pw.lo, pw.hi, pw.b, pw.c, pw.a
    quad_err = 0.0

    if p == 2.0:
        power = float(np.sum(_antideriv_sq(a, b, c, lo, hi)))
    elif p == 1.0:
        if a == 0.0 and not np.any(c):
            power = float(np.sum(np.abs(b) * (hi - lo)))
        else:
            power, quad_err = _abs_integral_l1(a, b, c, lo, hi)
    else:
        power = 0.0
        chunk = 200_000
        for i in range(0, len(lo), chunk):
            s = slice(i, i + chunk)
            lo16 = _quad_abs_p(a, b[s], c[s], lo[s], hi[s], p, 16)
            lo32 = _quad_abs_p(a, b[s], c[s], lo[s], hi[s], p, 32)
            power += float(np.sum(lo32))
            quad_err += float(np.sum(np.abs(lo32 - lo16)))

    far = 0.0
    if include_far and pw.tail_a != 0.0:
        if p == 1.0:
            power = math.inf
        else:
            far = abs(pw.tail_a) ** p / (p - 1.0)
            power += far

    # rounding drift of the cumulative b/c construction, folded into the
    # quadrature error: |d(v^p)| <= p |v|^(p-1) * drift per unit length
    if pw.drift_bound and math.isfinite(power):
        vmax = _value_bound(a, b, c, lo, hi)
        quad_err += p * max(vmax + pw.drift_bound, 1.0) ** (p - 1.0) * pw.drift_bound

    tail_low = _near_zero_tail(pw, p)
    value = power ** (1.0 / p) if math.isfinite(power) else math.inf
    return NormReport(p=p, value=value, tail_low=tail_low, tail_high=0.0,
                      quad_error=quad_err, segments=pw.segment_count,
                      far_tail=far, power_value=power)


def lp_distance(f, generator: Generator | None, p: float, eps: float = 1e-6,
                include_far: bool | None = None) -> NormReport:
    """||f - generator||_p with certificates; generator None means ||f||_p."""
    return lp_norm(to_piecewise(f, generator, eps), p, include_far=include_far)
