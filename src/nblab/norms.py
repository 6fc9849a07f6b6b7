"""Certified L_p distances on (0, infinity) via exact piecewise flattening.

A difference  f - generator  is flattened over (eps, 1] into segments on
which it equals exactly  a/x + b + c log x  (a is global: the 1/x tail
coefficient).  The segments are the exact breakpoint lattice {theta_k / j}:
one segment per distinct breakpoint, with the jumps of coincident terms
summed, including breakpoints where that sum is zero.  Integer jumps are
carried exactly, so c is always exact and b is exact when every
coefficient is an integer; drift_bound bounds what the remaining long
double lane, the start state and the cast to float64 can round.  Closed
forms integrate p = 1 and p = 2 and bound their own float64 rounding;
general p uses Gauss-Legendre with an order-doubling error estimate.  The
regions (0, eps) and (1, inf) are handled by a rigorous sup-bound and by
the exact tail integral of (a / x)^p respectively, so every report is an
interval certified to contain the true norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaincc

from .beurling import BeurlingSum, Generator, GeneratorKind
from .transform import TStep

_LD_EPS = float(np.finfo(np.longdouble).eps)
_F64_EPS = float(np.finfo(np.float64).eps)

FLATTEN_BUDGET = 20_000_000


class BudgetError(RuntimeError):
    """Raised when a flatten or far-cutoff sweep would exceed its
    breakpoint budget (and with it the memory of a desk machine)."""


@dataclass(frozen=True)
class PiecewiseHyperbolic:
    """Segments of a/x + b[i] + c[i] log x on (lo[i], hi[i]], ascending in x.

    The segments tile (eps, 1]; on (1, inf) the difference equals a / x
    exactly; on (0, eps) it is bounded by sup_const (+ |log x| when
    has_log_tail).  drift_bound bounds |b - b_exact| and |c - c_exact| on
    every segment: the rounding of non-integer coefficients and of the log
    jumps, the long double sums and the final cast to float64.
    """

    lo: np.ndarray
    hi: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a: float
    eps: float
    sup_const: float
    has_log_tail: bool
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
    """(rho_terms, phi_terms, inv_coeff, sup_bound) of f."""
    if isinstance(f, BeurlingSum):
        return list(f.terms), [], 0.0, f.sup_bound
    if isinstance(f, TStep):
        return [], f.phi_terms, f.inv_coeff, f.sup_bound
    if isinstance(f, Difference):
        rp, pp, ip, sp = _term_spec(f.plus)
        rm, pm, im, sm = _term_spec(f.minus)
        rho_terms = rp + [(-c, t) for c, t in rm]
        phi_terms = pp + [(-w, t) for w, t in pm]
        return rho_terms, phi_terms, ip - im, sp + sm
    raise TypeError(f"cannot flatten {type(f).__name__}")


# integers below this are exact doubles, so num / (den j) rounds once
_EXACT = 2 ** 53
# distinct breakpoints num/q, num'/q' differ by at least 1/(q q'), which
# exceeds an ulp of either unless num q' reaches this: below it equal
# doubles are equal rationals
_SEPARABLE = 2 ** 51


def _as_int(c):
    """A rational coefficient that is an integer, as an int; else None."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else None


def _ld_coeff(c) -> tuple[np.longdouble, float]:
    """(c rounded to long double, its exact rounding error) for a
    coefficient that is not an integer."""
    if isinstance(c, float):
        return np.longdouble(c), 0.0
    c = Fraction(c)
    cl = np.longdouble(c.numerator) / np.longdouble(c.denominator)
    return cl, float(abs(Fraction(*cl.as_integer_ratio()) - c))


@dataclass(frozen=True)
class _Jumps:
    """Summed jumps of (b, c) at the distinct breakpoints xs, descending
    (two distinct rationals can round to one double and repeat an x).

    db is exact when it is int64; as long double, err bounds the rounding
    already in it.  dc is int64, or None when no term moves c.
    """

    xs: np.ndarray
    db: np.ndarray
    dc: np.ndarray | None
    err: float


def _lattice_jumps(rho_terms, phi_terms, eps: float) -> _Jumps:
    """Jumps when every theta is 1/k: all breakpoints lie on x = 1/m, and
    the jump at m is a divisor sum over the terms with k | m, scattered as
    D[k::k] += c_k.  A Phi term of weight w jumps by -w log m in b and -w
    in c there, so the log lane and non-integer coefficients are the only
    inexact parts."""
    top = int(1.0 / eps) + 1
    hit = np.zeros(top + 1, dtype=bool)
    db_int = np.zeros(top + 1, dtype=np.int64)
    db_flt = weights = None
    floats = []                      # (|coeff|, rounding of coeff, k)
    for coeff, theta in rho_terms:
        k = theta.denominator
        hit[k::k] = True
        ci = _as_int(coeff)
        if ci is not None:
            db_int[k::k] -= ci
        else:
            if db_flt is None:
                db_flt = np.zeros(top + 1, dtype=np.longdouble)
            cl, delta = _ld_coeff(coeff)
            db_flt[k::k] -= cl
            floats.append((abs(float(cl)), delta, k))
    for w, theta in phi_terms:
        k = theta.denominator
        hit[k::k] = True
        if weights is None:
            weights = np.zeros(top + 1, dtype=np.int64)
        weights[k::k] += w
    # x = 1 is no breakpoint: the floor 1 of theta = 1 there is in the start state
    hit[:2] = False
    m = np.flatnonzero(hit)
    xs = 1.0 / m
    keep = xs > eps
    m, xs = m[keep], xs[keep]

    db, dc = db_int[m], None
    m_max = int(m[-1]) if len(m) else 1
    err = sum(delta * (m_max // k - (k == 1)) for _, delta, k in floats)
    parts = [] if db_flt is None else [db_flt[m]]
    if weights is not None:
        w = weights[m]
        dc = -w
        log_m = np.log(m.astype(np.longdouble))
        parts.append(-w * log_m)
        # logl within one ulp, then one rounded product
        err += 2.0 * _LD_EPS * float(np.sum(np.abs(w) * log_m))
    if parts:
        # the scatter summed up to len(floats) coefficients at each m, and
        # each part then added to the exact integer jump rounds once
        bound = sum(c for c, _, _ in floats) + sum(
            float(np.max(np.abs(v), initial=0.0)) for v in [db] + parts)
        err += _LD_EPS * (max(len(floats) - 1, 0) + len(parts)) * len(m) * bound
        db = db.astype(np.longdouble)
        for v in parts:
            db += v
    return _Jumps(xs, db, dc, err)


def _merged_jumps(rho_terms, phi_terms, eps: float) -> _Jumps:
    """Jumps for arbitrary rational thetas.  Each breakpoint num/(den j) is
    one correctly rounded division of exact integers, so equal rationals
    give equal doubles.  A stable sort of the per-term runs groups equal
    doubles; where distinct rationals can share a double, cross-multiplied
    integers decide which entries of a group are one rational, and the
    others stay separate breakpoints, ordered exactly."""
    terms = list(rho_terms) + list(phi_terms)
    spec = []                        # (num, den, first j, kept count)
    xs_parts = []
    for _, theta in terms:
        num, den = theta.numerator, theta.denominator
        j0, j1 = math.floor(theta) + 1, int(float(theta) / eps) + 2
        if num < _EXACT and den * j1 < _EXACT:
            x = num / (den * np.arange(j0, j1, dtype=np.int64))
        else:
            x = np.array([num / (den * j) for j in range(j0, j1)], dtype=np.float64)
        x = x[x > eps]
        spec.append((num, den, j0, len(x)))
        xs_parts.append(x)
    xs = np.concatenate(xs_parts) if terms else np.empty(0)
    size = len(xs)

    int_rho = [_as_int(c) for c, _ in rho_terms]
    exact = not phi_terms and None not in int_rho
    db = np.zeros(size, np.int64 if exact else np.longdouble)
    dc = np.zeros(size, np.int64) if phi_terms else None
    err = 0.0
    start = 0
    for i, ((coeff, _), (num, den, j0, count)) in enumerate(zip(terms, spec)):
        s = slice(start, start + count)
        start += count
        if i >= len(rho_terms):
            # Phi: b jumps by w log(theta / j) = w (log num - log den - log j)
            dc[s] = -coeff
            log_j = np.log(np.arange(j0, j0 + count, dtype=np.longdouble))
            log_nd = np.log(np.longdouble(num)) - np.log(np.longdouble(den))
            db[s] = coeff * (log_nd - log_j)
            # logl within one ulp, num and den rounded on conversion above
            # 2^64, two differences and one product rounded once each
            err += 2.0 * _LD_EPS * abs(coeff) * float(
                count * (abs(log_nd) + np.log(np.longdouble(den)) + 1.0)
                + np.sum(log_j))
        elif int_rho[i] is not None:
            db[s] = -int_rho[i]
        else:
            cl, delta = _ld_coeff(coeff)
            db[s] = -cl
            err += delta * count

    order = np.argsort(-xs, kind="stable")
    xs = xs[order]
    first = np.ones(size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    spread = (max((num for num, *_ in spec), default=0)
              * max((den * (j0 + count) for _, den, j0, count in spec), default=0))
    tied = np.flatnonzero(~first) if spread >= _SEPARABLE else []
    if len(tied):
        # an entry tied with its predecessor is the same rational iff
        # num q' == num' q; Python ints where int64 products could overflow
        offsets = np.cumsum([0] + [count for *_, count in spec])
        kind = object if spread >= 2 ** 63 else np.int64
        nums, dens, j0s = (np.array(v, dtype=kind) for v in list(zip(*spec))[:3])

        def ratio(pos):
            t = np.searchsorted(offsets, pos, side="right") - 1
            return nums[t], dens[t] * (j0s[t] + (pos - offsets[t]).astype(kind))

        n1, q1 = ratio(order[tied - 1])
        n2, q2 = ratio(order[tied])
        split = tied[np.not_equal(n1 * q2, n2 * q1)]
        if len(split):
            # rare: distinct rationals on one double; order each such group
            # exactly and start a breakpoint wherever the rational changes
            heads = np.flatnonzero(first)
            ends = np.append(heads[1:], size)
            for h in np.unique(np.searchsorted(heads, split, side="right") - 1):
                run = slice(heads[h], ends[h])
                fr = [Fraction(int(a), int(b)) for a, b in zip(*ratio(order[run]))]
                perm = sorted(range(len(fr)), key=lambda k: -fr[k])
                order[run] = order[run][perm]
                first[run][1:] = [fr[perm[k]] != fr[perm[k - 1]]
                                for k in range(1, len(fr))]
    starts = np.flatnonzero(first)
    if not exact and len(starts) < size:
        # a run of r jumps is summed with r - 1 roundings
        run_max = int(np.max(np.diff(np.append(starts, size))))
        err += _LD_EPS * (run_max - 1) * float(np.sum(np.abs(db)))

    def merged(lane):
        return None if lane is None else np.add.reduceat(lane[order], starts)

    return _Jumps(xs[starts], merged(db), merged(dc), err)


def _int_state(jumps, n: int) -> np.ndarray:
    """Cumulative integer state, 0 before the first jump, checked exact in float64."""
    state = np.zeros(n + 1, dtype=np.int64)
    if jumps is not None:
        # the sum of |jumps| bounds every partial state
        if float(np.sum(np.abs(jumps), dtype=np.float64)) >= 2.0 ** 52:
            raise OverflowError("integer jumps too large for an exact float64 state")
        np.cumsum(jumps, out=state[1:])
    return state


def check_cutoff(eps: float) -> None:
    """Raise ValueError unless eps lies in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1), got {eps}")


def to_piecewise(f, generator: Generator | None, eps: float) -> PiecewiseHyperbolic:
    """Flatten f - generator over (eps, 1] into hyperbolic-log segments.

    Breakpoints are the distinct points of the dilation lattice
    {theta_k / j}, one segment each; crossing one from above increments
    floor(theta_k / x) for every term through it, which bumps b (and, for
    integral terms, the log coefficient c) by the summed jump.  When every
    theta is 1/k and the lattice 1/m is no larger than the breakpoint count,
    the jumps are divisor sums built by scatter; otherwise the per-term
    breakpoints are sorted and coincident ones summed.
    """
    rho_terms, phi_terms, inv_coeff, sup_bound = _term_spec(f)
    check_cutoff(eps)

    b_gen, c_gen, log_tail = _gen_offsets(generator)
    total = sum(int(float(t) / eps) + 1
                for _, t in list(rho_terms) + list(phi_terms))
    if total > FLATTEN_BUDGET:
        raise BudgetError(
            f"{total} breakpoints exceed budget {FLATTEN_BUDGET}; "
            "raise the cutoff or reduce the number of dilation terms")
    if any(t > 1 for _, t in rho_terms):
        raise ValueError("rho terms need theta <= 1")
    if any(w != int(w) or t > 1 for w, t in phi_terms):
        raise ValueError("Phi terms need integer weights and theta <= 1")
    phi_terms = [(int(w), t) for w, t in phi_terms]
    # near zero the generator's constant part survives alongside the sum
    sup_bound = float(sup_bound) + abs(b_gen)
    # the tail coefficient must vanish exactly for class-C sums, so it is
    # accumulated in exact rational arithmetic when the coefficients allow
    a = float(inv_coeff)
    if rho_terms:
        a += float(sum((c * t for c, t in rho_terms), start=Fraction(0)))

    # state just below x = 1, where only theta = 1 has floor(theta / x) = 1;
    # a Phi term there adds w (floor(theta) log theta - log floor(theta)!) = 0
    b_exact = Fraction(b_gen) - sum((Fraction(c) for c, t in rho_terms if t == 1),
                                    start=Fraction(0))
    b0 = float(b_exact)
    b0_err = float(abs(Fraction(b0) - b_exact))
    c0 = int(c_gen) - sum(w for w, t in phi_terms if t == 1)

    # the lattice arrays hold 1/eps entries, never more than the sort would
    dense = (all(t.numerator == 1 for _, t in list(rho_terms) + list(phi_terms))
             and int(1.0 / eps) <= total)
    jumps = (_lattice_jumps if dense else _merged_jumps)(rho_terms, phi_terms, eps)

    n = len(jumps.xs)
    lo = np.empty(n + 1)
    hi = np.empty(n + 1)
    lo[0], lo[1:] = eps, jumps.xs[::-1]
    hi[:-1], hi[-1] = jumps.xs[::-1], 1.0
    c_state = _int_state(jumps.dc, n) + c0
    # b drift: the start state, the jumps, their cumulative sum and the
    # rounding to float64; c is exact
    if jumps.db.dtype == np.int64:
        b = b0 + _int_state(jumps.db, n).astype(np.float64)
        drift = b0_err if b0.is_integer() else b0_err + _F64_EPS * float(np.max(np.abs(b)))
    else:
        s = np.zeros(n + 1, dtype=np.longdouble)
        np.cumsum(jumps.db, out=s[1:])
        b = (np.longdouble(b0) + s).astype(np.float64)
        drift = (b0_err + jumps.err
                 + _LD_EPS * np.count_nonzero(jumps.db) * float(np.max(np.abs(s)))
                 + (_LD_EPS + _F64_EPS) * float(np.max(np.abs(b))))
    # absorbs the rounding of the bound's own float64 arithmetic
    drift = float(drift) * (1.0 + 1e-9)

    return PiecewiseHyperbolic(
        lo=lo, hi=hi, b=b[::-1].copy(), c=c_state[::-1].astype(np.float64),
        a=a, eps=eps, sup_const=float(sup_bound), has_log_tail=log_tail,
        drift_bound=drift,
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


def _sq_integral(pw: PiecewiseHyperbolic) -> tuple[float, float]:
    """(integral of the squared segments, bound on its float64 rounding).

    Each integral_lo^hi (a/x + b + c log x)^2 dx is taken in difference
    form.  The bound assumes np.log and np.log1p within 1 ulp (NumPy's
    float64 accuracy tests hold them to that), every other operation within
    half an ulp, and np.sum adding pairwise (blocks of at most 128 in eight
    accumulators), so a term meets at most log2(n) + 25 additions.  With
    L = -log(eps) and d = hi - lo, log(hi/lo) <= d / sqrt(lo hi) and AM-GM
    bound the six parts of a segment's integral by 3 (a^2 d/(lo hi) + b^2 d
    + c^2 L^2 d); each part is within 5 eps, and adding them costs 2.5 eps
    more.  The b c and c^2 parts subtract x (log x - 1) and
    x (log^2 x - 2 log x + 2) at both ends, rounded within 2 eps of
    x (L + 1) and 4 eps of x ((L + 1)^2 + 1).  Neighbouring segments share
    that rounded end value, so the sum sees it only times the jump of 2 b c
    or c^2 there (log 1 = 0 is exact), and through the 4 eps of roundings
    after it on each segment, taken at the largest |2 b c| and c^2 with
    lo + hi <= 2.  The slack in the constants absorbs the other
    second-order terms.
    """
    a, lo, hi, b, c = pw.a, pw.lo, pw.hi, pw.b, pw.c
    d = hi - lo
    L = -math.log(pw.eps)
    err = 24.0 * (a * a / pw.eps + np.einsum("i,i,i->", b, b, d))
    if np.any(c):
        err += 24.0 * L * L * np.einsum("i,i,i->", c, c, d)
        # q = b c: its r carries the 2 of 2 b c
        for q, r in ((b * c, 4.0 * (L + 1.0)), (c * c, 4.0 * ((L + 1.0) ** 2 + 1.0))):
            jumps = np.diff(q)
            err += r * (abs(q[0]) * lo[0] + np.dot(lo[1:], np.abs(jumps, out=jumps))
                        + 8.0 * _F64_EPS * len(q) * max(q.max(), -q.min()))
        del q, jumps                    # free them before the closed form's arrays
    lr = np.log1p(d / lo)               # log(hi/lo)
    llo = np.log(lo)
    lhi = np.log(hi)
    out = a * a * d / (lo * hi)
    out += 2.0 * a * b * lr
    out += a * c * lr * (lhi + llo)     # a c (log^2 hi - log^2 lo)
    out += b * b * d
    out += 2.0 * b * c * (hi * (lhi - 1.0) - lo * (llo - 1.0))
    out += c * c * (hi * (lhi * lhi - 2.0 * lhi + 2.0) - lo * (llo * llo - 2.0 * llo + 2.0))
    power = float(np.sum(out))
    err += (math.log2(len(out)) + 25.0) * 0.5 * np.sum(np.abs(out, out=out))
    return power, float(_F64_EPS * err)


def _signed_integral(a, b, c, u, w):
    """integral_u^w (a/x + b + c log x) dx, difference form."""
    return a * np.log1p((w - u) / u) + b * (w - u) + c * (w * (np.log(w) - 1.0) - u * (np.log(u) - 1.0))


def _value(a, b, c, x):
    return a / x + b + c * np.log(x)


_ROOT_TOL = 1e-14


def _abs_integral_l1(a, b, c, lo, hi):
    """(integral of |a/x + b + c log x| over the segments, error bound).

    Each segment is split at the lone critical point x = a/c when interior,
    leaving monotone pieces with at most one sign change each; roots are
    closed-form where possible, else resolved by vectorized bisection.  The
    bound adds the float64 rounding of the pieces and their sum to the root
    slip, under the assumptions of _sq_integral.  On a piece (u, w] of width
    d, the a part is within 3 eps of |a| log(w/u) (the logs add up to
    L = -log(lo[0])) and the b part within eps |b| d; an end value
    x (log x - 1) is within eps x (2L + 1), so the c part is within
    eps |c| (3L + 1)(u + w).  Adding the parts costs eps (|a| log(w/u) +
    |b| d + |c| L d), and a root split one more addition.
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
    ends = np.dot(np.abs(cc), u + w)    # |c| (u + w) summed over the pieces
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
        ends += 2.0 * np.dot(np.abs(cm), root)
    power, L = float(np.sum(total)), -math.log(lo[0])
    err += _F64_EPS * (4.0 * abs(a) * L + 2.0 * np.dot(np.abs(b), hi - lo) + (4.0 * L + 2.0)
                       * ends + (math.log2(len(total)) + 26.0) * 0.5 * power)
    return power, float(err)


_gl_nodes = functools.cache(np.polynomial.legendre.leggauss)


def _quad_abs_p(a, b, c, lo, hi, p, order):
    x0, w0 = _gl_nodes(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x0[None, :]
    vals = np.abs(_value(a, b[:, None], c[:, None], nodes)) ** p
    return half * (vals @ w0)


def check_p(p: float) -> None:
    """Raise ValueError unless the engine integrates the p-th power."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")


def lp_norm(pw: PiecewiseHyperbolic, p: float,
            include_far: bool | None = None) -> NormReport:
    """Certified ||difference||_p over (0, infinity) or (0, 1].

    include_far selects whether the exact (1, infinity) contribution of the
    A/x tail is added.  The default follows the canonical embedding used for
    the limit statements: included for p > 1, omitted for p = 1 (where a
    nonvanishing tail makes the full-line integral infinite and the claims
    are about the unit interval).
    """
    check_p(p)
    if include_far is None:
        include_far = p > 1.0
    lo, hi, b, c, a = pw.lo, pw.hi, pw.b, pw.c, pw.a
    quad_err = 0.0

    if p == 2.0:
        power, quad_err = _sq_integral(pw)
    elif p == 1.0:
        if a == 0.0 and not np.any(c):
            power = float(np.sum(np.abs(b) * (hi - lo)))
            # terms of one sign, each within eps, then np.sum as in _sq_integral
            quad_err = (math.log2(len(lo)) + 27.0) * _F64_EPS * power
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

    # the computed v is within delta = drift_bound of the exact difference,
    # so ||v+e|^p - |v|^p| <= p delta (|v| + delta)^(p-1); Hoelder and
    # Minkowski on (eps, 1], of length below 1, bound its integral by
    # p delta (||v||_p + delta)^(p-1), with ||v||_p from the power just made
    delta = pw.drift_bound
    if delta:
        norm = (max(power, 0.0) + quad_err) ** (1.0 / p)
        quad_err += p * delta * (norm + delta) ** (p - 1.0)

    far = 0.0
    if include_far and a != 0.0:
        if p == 1.0:
            power = math.inf
        else:
            far = abs(a) ** p / (p - 1.0)
            power += far

    tail_low = _near_zero_tail(pw, p)
    value = power ** (1.0 / p) if math.isfinite(power) else math.inf
    return NormReport(p=p, value=value, tail_low=tail_low, tail_high=0.0,
                      quad_error=quad_err, segments=pw.segment_count,
                      far_tail=far, power_value=power)


def lp_distance(f, generator: Generator | None, p: float, eps: float = 1e-6,
                include_far: bool | None = None) -> NormReport:
    """||f - generator||_p with certificates; generator None means ||f||_p."""
    check_p(p)   # before the flatten allocates
    return lp_norm(to_piecewise(f, generator, eps), p, include_far=include_far)
