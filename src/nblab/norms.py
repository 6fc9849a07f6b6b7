"""Certified L_p distances on (0, infinity) via exact piecewise flattening.

A difference  f - generator  is flattened over (eps, 1] into segments on
which it equals exactly  a/x + b + c log x  (a is global: the 1/x tail
coefficient, rounded once from its exact value).  The flatten reads only
the integer lanes of f (beurling.Lanes: coefficients, theta numerators
and denominators, irregular terms), so its checks, bounds and scatter
indices are array expressions.  The segments are the exact breakpoint
lattice {theta_k / j}: one segment per distinct breakpoint, with the
jumps of coincident terms summed, including breakpoints where that sum
is zero; one ascending edge array holds them.  Integer jumps are carried
exactly, so c is always exact and b is exact when every coefficient is
an integer; drift_bound bounds what the remaining long double lane, the
start state and the cast to float64 can round.  p = 2 takes a closed
form from values at the edges.  At any other p, _split cuts the segments
at critical points into monotone pieces and cuts a bracket out around
each root, enclosed at its midpoint; p = 1 integrates the pieces in
closed form, and general p by Gauss-Legendre at the lowest order whose
Bernstein-ellipse bound meets a fixed relative target, cutting pieces
toward roots.  Every integrator bounds its own float64 rounding, and the
truncation and rounding bounds are proofs.  The regions (0, eps) and
(1, inf) are handled by a rigorous sup-bound and by the exact tail
integral of (a / x)^p respectively, so every report is an interval
certified to contain the true norm.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaincc

from .beurling import BeurlingSum, Generator, GeneratorKind, Lanes
from .transform import TStep

_LD_EPS = float(np.finfo(np.longdouble).eps)
_F64_EPS = float(np.finfo(np.float64).eps)

FLATTEN_BUDGET = 20_000_000
_BLOCK = 1 << 15        # segments (p = 2) or pieces (general p) per cache-sized block


class BudgetError(RuntimeError):
    """Raised when a flatten or far-cutoff sweep would exceed its
    breakpoint budget (and with it the memory of a desk machine)."""


@dataclass(frozen=True)
class PiecewiseHyperbolic:
    """Segments of a/x + b[i] + c[i] log x on (edges[i], edges[i+1]].

    The ascending edges run from eps to 1, so the segments tile (eps, 1];
    on (1, inf) the difference equals a / x exactly; on (0, eps) it is
    bounded by sup_const (+ |log x| when has_log_tail).  drift_bound bounds
    |b - b_exact| and |c - c_exact| on every segment: the rounding of
    non-integer coefficients and of the log jumps, the long double sums and
    the final cast to float64.
    """

    edges: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a: float
    sup_const: float
    has_log_tail: bool
    drift_bound: float = 0.0

    @property
    def lo(self) -> np.ndarray:
        return self.edges[:-1]

    @property
    def hi(self) -> np.ndarray:
        return self.edges[1:]

    @property
    def eps(self) -> float:
        return float(self.edges[0])

    @property
    def segment_count(self) -> int:
        return len(self.edges) - 1


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
            # an inf error means the power only passed the float range
            return 0.0 if math.isinf(self.quad_error) else math.inf
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


_NO_TERMS = Lanes.of_terms(())


def _term_spec(f):
    """(rho lanes, Phi lanes, inv_coeff, sup_bound) of f."""
    if isinstance(f, BeurlingSum):
        return f.lanes, _NO_TERMS, 0.0, f.sup_bound
    if isinstance(f, TStep):
        return _NO_TERMS, f.phi_lanes, f.inv_coeff, f.sup_bound
    if isinstance(f, Difference):
        rp, pp, ip, sp = _term_spec(f.plus)
        rm, pm, im, sm = _term_spec(f.minus)
        return rp.concat(rm.negated()), pp.concat(pm.negated()), ip - im, sp + sm
    raise TypeError(f"cannot flatten {type(f).__name__}")


# integers below this are exact doubles, so num / (den j) rounds once
_EXACT = 2 ** 53
# distinct breakpoints num/q, num'/q' differ by at least 1/(q q'), which
# exceeds an ulp of either unless num q' reaches this: below it equal
# doubles are equal rationals
_SEPARABLE = 2 ** 51


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


def _lattice_jumps(rho: Lanes, phi: Lanes, eps: float) -> _Jumps:
    """Jumps when every theta is 1/k: all breakpoints lie on x = 1/m, and
    the jump at m is a divisor sum over the terms with k | m, scattered as
    D[k::k] += c_k.  A Phi term of weight w jumps by -w log m in b and -w
    in c there, so the log lane and non-integer coefficients are the only
    inexact parts."""
    top = int(1.0 / eps) + 1
    db_int = np.zeros(top + 1, dtype=np.int64)
    db_flt = weights = None
    for k, c in zip(rho.den.tolist(), rho.coeff.tolist()):
        if c:
            db_int[k::k] -= c
    floats = []                      # (|coeff|, rounding of coeff, k)
    for i, coeff in rho.irregular.items():
        k = int(rho.den[i])
        if db_flt is None:
            db_flt = np.zeros(top + 1, dtype=np.longdouble)
        cl, delta = _ld_coeff(coeff)
        db_flt[k::k] -= cl
        floats.append((abs(float(cl)), delta, k))
    if len(phi):
        weights = np.zeros(top + 1, dtype=np.int64)
        for k, w in zip(phi.den.tolist(), phi.coeff.tolist()):
            weights[k::k] += w
    # theta = 1 breaks at every 1/m (no mask) but x = 1, whose floor is in the start state
    ks = np.concatenate([rho.den, phi.den])
    has_one = bool(np.any(ks == 1))
    if has_one:
        m = np.arange(2, top + 1)
    else:
        hit = np.zeros(top + 1, dtype=bool)
        for k in ks.tolist():
            hit[k::k] = True
        m = np.flatnonzero(hit)
    xs = 1.0 / m
    # xs descends, so the breakpoints above eps are a prefix
    keep = len(xs) - int(np.searchsorted(xs[::-1], eps, side="right"))
    m, xs = m[:keep], xs[:keep]
    at = slice(2, 2 + keep) if has_one else m

    db, dc = db_int[at], None
    m_max = int(m[-1]) if len(m) else 1
    err = sum(delta * (m_max // k - (k == 1)) for _, delta, k in floats)
    parts = [] if db_flt is None else [db_flt[at]]
    if weights is not None:
        w = weights[at]
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


def _merged_jumps(rho: Lanes, phi: Lanes, eps: float) -> _Jumps:
    """Jumps for arbitrary rational thetas.  Each breakpoint num/(den j) is
    one correctly rounded division of exact integers, so equal rationals
    give equal doubles.  A stable sort of the per-term runs groups equal
    doubles; where distinct rationals can share a double, cross-multiplied
    integers decide which entries of a group are one rational, and the
    others stay separate breakpoints, ordered exactly."""
    spec = []                        # (num, den, first j, kept count)
    xs_parts = []
    for num, den in zip(np.concatenate([rho.num, phi.num]).tolist(),
                        np.concatenate([rho.den, phi.den]).tolist()):
        j0, j1 = num // den + 1, int(num / den / eps) + 2
        if num < _EXACT and den * j1 < _EXACT:
            x = num / (den * np.arange(j0, j1, dtype=np.int64))
        else:
            x = np.array([num / (den * j) for j in range(j0, j1)], dtype=np.float64)
        x = x[x > eps]
        spec.append((num, den, j0, len(x)))
        xs_parts.append(x)
    xs = np.concatenate(xs_parts) if spec else np.empty(0)
    size = len(xs)

    exact = not len(phi) and not rho.irregular
    db = np.zeros(size, np.int64 if exact else np.longdouble)
    dc = np.zeros(size, np.int64) if len(phi) else None
    err = 0.0
    start = 0
    coeffs = rho.coefficients() + phi.coeff.tolist()
    for i, (coeff, (num, den, j0, count)) in enumerate(zip(coeffs, spec)):
        s = slice(start, start + count)
        start += count
        if i >= len(rho):
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
        elif i not in rho.irregular:
            db[s] = -coeff
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
    """Raise ValueError unless eps lies in (0, 1) and is a normal double."""
    if not sys.float_info.min <= eps < 1.0:
        raise ValueError(f"cutoff must lie in (0, 1) and be a normal double, got {eps}")


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
    rho, phi, inv_coeff, sup_bound = _term_spec(f)
    check_cutoff(eps)

    b_gen, c_gen, log_tail = _gen_offsets(generator)
    # counted in floats, exact below 2^53 and inf rather than an overflow
    thetas = np.concatenate([rho.thetas(), phi.thetas()])
    total = float(np.sum(thetas / eps // 1.0 + 1.0))
    if total > FLATTEN_BUDGET:
        raise BudgetError(
            f"{total:.3g} breakpoints exceed budget {FLATTEN_BUDGET}; "
            "raise the cutoff or reduce the number of dilation terms")
    if np.any(rho.num > rho.den):
        raise ValueError("rho terms need theta <= 1")
    if phi.irregular or np.any(phi.num > phi.den):
        raise ValueError("Phi terms need integer weights and theta <= 1")
    # near zero the generator's constant part survives alongside the sum
    sup_bound = float(sup_bound) + abs(b_gen)
    # the tail coefficient must vanish exactly for class-C sums, so it is
    # rounded once from its exact value when the coefficients allow
    a = float(inv_coeff)
    if len(rho):
        a += rho.tail_float()

    # state just below x = 1, where only theta = 1 has floor(theta / x) = 1;
    # a Phi term there adds w (floor(theta) log theta - log floor(theta)!) = 0
    at_one = np.flatnonzero(rho.den == 1).tolist()
    b_exact = Fraction(b_gen) - sum((Fraction(rho.irregular.get(i, int(rho.coeff[i])))
                                     for i in at_one), start=Fraction(0))
    b0 = float(b_exact)
    b0_err = float(abs(Fraction(b0) - b_exact))
    c0 = int(c_gen) - int(phi.coeff[phi.den == 1].sum())

    # the lattice arrays hold 1/eps entries, never more than the sort would
    dense = bool(np.all(rho.num == 1) and np.all(phi.num == 1)) and int(1.0 / eps) <= total
    jumps = (_lattice_jumps if dense else _merged_jumps)(rho, phi, eps)

    n = len(jumps.xs)
    edges = np.concatenate([[eps], jumps.xs[::-1], [1.0]])
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
        edges=edges, b=b[::-1].copy(), c=c_state[::-1].astype(np.float64),
        a=a, sup_const=float(sup_bound), has_log_tail=log_tail,
        drift_bound=drift,
    )


def _near_zero_tail(pw: PiecewiseHyperbolic, p: float) -> float:
    """Bound integral_0^eps |difference|^p dx; inf only when the bound
    itself passes the float range."""
    e, cst = pw.eps, pw.sup_const
    try:
        if not pw.has_log_tail:
            return cst ** p * e
        # Minkowski: ||C + |log x|||_p <= C e^(1/p) + (integral |log|^p)^(1/p);
        # the log integral is the upper incomplete gamma Gamma(p+1, -log eps)
        log_part = float(gammaincc(p + 1.0, -math.log(e))) * math.exp(math.lgamma(p + 1.0))
        return (cst * e ** (1.0 / p) + log_part ** (1.0 / p)) ** p
    except OverflowError:
        # a factor passed the float range: the bound is R^p for its p-th
        # root R, taken as exp(p log R) with slack for the logarithms
        root = cst * e ** (1.0 / p)
        if pw.has_log_tail:
            root += math.exp((math.log(gammaincc(p + 1.0, -math.log(e)))
                              + math.lgamma(p + 1.0)) / p)
        t = p * math.log(root)
        with np.errstate(over="ignore"):
            return float(np.exp(t + 1e-12 * (abs(t) + 1.0)))


def _sq_integral(pw: PiecewiseHyperbolic) -> tuple[float, float]:
    """(integral of the squared segments, bound on its float64 rounding).

    Each integral_lo^hi (a/x + b + c log x)^2 dx is taken in difference
    form, from log x, x (log x - 1) and x (log^2 x - 2 log x + 2) taken once
    at each edge, in blocks of _BLOCK segments (an edge at a block join is
    taken twice by the same operations, to one value); c == 0 skips the c
    terms, exact zeros.  Every sum, so the bound, runs over whole arrays.
    The bound assumes np.log and np.log1p within 1 ulp
    (NumPy's float64 accuracy tests hold them to that), every other
    operation within half an ulp, and np.sum adding pairwise (blocks of at
    most 128 in eight accumulators), so a term meets at most log2(n) + 25
    additions.  With L = -log(eps) and d = hi - lo, log(hi/lo) <= d /
    sqrt(lo hi) and AM-GM bound the six parts of a segment's integral by
    3 (a^2 d/(lo hi) + b^2 d + c^2 L^2 d); each part is within 5 eps, and
    adding them costs 2.5 eps more.  The b c and c^2 parts difference the
    edge values x (log x - 1) and x (log^2 x - 2 log x + 2), rounded within
    2 eps of x (L + 1) and 4 eps of x ((L + 1)^2 + 1).  Neighbouring
    segments share the rounded value at their common edge, so the sum sees
    it only times the jump of 2 b c or c^2 there (log 1 = 0 is exact), and
    through the 4 eps of roundings after it on each segment, taken at the
    largest |2 b c| and c^2 with lo + hi <= 2.  The slack in the constants
    absorbs the other second-order terms.
    """
    a, x, b, c = pw.a, pw.edges, pw.b, pw.c
    has_c = bool(np.any(c))
    d, out = np.empty(len(b)), np.empty(len(b))
    for i in range(0, len(b), _BLOCK):
        s, xb = slice(i, i + _BLOCK), x[i:i + _BLOCK + 1]
        lo, hi, bb, cb = xb[:-1], xb[1:], b[s], c[s]
        dx = np.subtract(hi, lo, out=d[s])
        lr = np.log1p(dx / lo)          # log(hi/lo)
        ob = np.divide(a * a * dx, lo * hi, out=out[s])
        ob += 2.0 * a * bb * lr
        if has_c:
            lx = np.log(xb)
            ob += a * cb * lr * (lx[1:] + lx[:-1])     # a c (log^2 hi - log^2 lo)
        ob += bb * bb * dx
        if has_c:
            ob += 2.0 * bb * cb * np.diff(xb * (lx - 1.0))
            ob += cb * cb * np.diff(xb * (lx * lx - 2.0 * lx + 2.0))
    L = -math.log(x[0])
    err = 24.0 * (a * a / x[0] + np.einsum("i,i,i->", b, b, d))
    if has_c:
        err += 24.0 * L * L * np.einsum("i,i,i->", c, c, d)
        # q = b c: its r carries the 2 of 2 b c
        for q, r in ((b * c, 4.0 * (L + 1.0)), (c * c, 4.0 * ((L + 1.0) ** 2 + 1.0))):
            jumps = np.diff(q)
            err += r * (abs(q[0]) * x[0] + np.dot(x[1:-1], np.abs(jumps, out=jumps))
                        + 8.0 * _F64_EPS * len(q) * max(q.max(), -q.min()))
    power = float(np.sum(out))
    err += (math.log2(len(out)) + 25.0) * 0.5 * np.sum(np.abs(out, out=out))
    return power, float(_F64_EPS * err)


def _value(a, b, c, x):
    return a / x + b + c * np.log(x)


def _value_and_err(a, b, c, x):
    """(_value at x, bound on its float64 rounding at exact x): three
    roundings of a/x, two of b, four of c log x (np.log within 1 ulp)."""
    lx = np.log(x)
    return a / x + b + c * lx, 3.0 * _F64_EPS * (np.abs(a) / x + np.abs(b) + np.abs(c * lx))


@dataclass(frozen=True)
class _Pieces:
    """The segments cut into pieces (u, w] with coefficients b, c on which
    v is monotone and of one sign, and the root brackets [glo, ghi] cut out
    between them, on which |v| <= vbr."""

    u: np.ndarray
    w: np.ndarray
    b: np.ndarray
    c: np.ndarray
    glo: np.ndarray
    ghi: np.ndarray
    vbr: np.ndarray

    def bracket_power(self, p: float) -> float:
        """Sum of the midpoints h vbr^p of the brackets' enclosures
        [0, 2h vbr^p] of integral |v|^p, and so also of their half-widths."""
        return float(np.sum(0.5 * (self.ghi - self.glo) * self.vbr ** p))


def _split(pw: PiecewiseHyperbolic) -> _Pieces:
    """Split the segments at interior critical points x = a/c into monotone
    pieces, and cut a bracket around the lone root of each piece whose end
    values differ in sign, which leaves (u, glo] and (ghi, w] of it.

    The bracket starts at a closed-form root where there is one (c = 0:
    -a/b; a = 0: exp(-b/c)), else at the final bracket of a vectorized
    bisection, and each end steps outward (one ulp first, then doubling)
    until its computed value has the sign of its side of the piece and
    clears its rounding bound (from _value_and_err), or reaches the piece's
    end.  A sign change of the exact v therefore lies inside the bracket,
    and monotonicity bounds |v| there by the larger end.  The (ghi, w] cuts
    follow all other pieces.
    """
    a, b, c, lo, hi = pw.a, pw.b, pw.c, pw.lo, pw.hi
    has_crit = (c != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = np.where(has_crit, a / np.where(has_crit, c, 1.0), np.nan)
    interior = has_crit & (crit > lo) & (crit < hi)

    u, w, bb, cc = lo, hi, b, c
    if np.any(interior):
        u = np.concatenate([lo, crit[interior]])
        w = np.concatenate([np.where(interior, crit, hi), hi[interior]])
        bb = np.concatenate([b, b[interior]])
        cc = np.concatenate([c, c[interior]])
    vu, vw = _value(a, bb, cc, u), _value(a, bb, cc, w)
    mix = vu * vw < 0.0

    um, wm, bm, cm = u[mix], w[mix], bb[mix], cc[mix]
    sign = np.sign(vu[mix])
    glo, ghi = um.copy(), wm.copy()
    c0 = cm == 0.0
    a0 = (~c0) & (a == 0.0)
    if np.any(c0):
        glo[c0] = ghi[c0] = np.clip(-a / bm[c0], um[c0], wm[c0])
    if np.any(a0):
        glo[a0] = ghi[a0] = np.clip(np.exp(-bm[a0] / cm[a0]), um[a0], wm[a0])
    gen = ~(c0 | a0)
    if np.any(gen):
        lo_g, hi_g = glo[gen], ghi[gen]
        gsign = sign[gen]
        gb, gc = bm[gen], cm[gen]
        for _ in range(60):
            mid = 0.5 * (lo_g + hi_g)
            vm = _value(a, gb, gc, mid)
            left = np.sign(vm) == gsign
            lo_g = np.where(left, mid, lo_g)
            hi_g = np.where(left, hi_g, mid)
            if np.max(hi_g - lo_g) < 1e-14:
                break
        glo[gen], ghi[gen] = lo_g, hi_g

    # step each bracket end outward until its sign is certain
    step = np.maximum(ghi - glo, np.spacing(0.5 * (glo + ghi)))
    vbr = np.zeros(len(um))
    for end, limit, side, out, stop in ((glo, um, sign, -1.0, np.maximum),
                                        (ghi, wm, -sign, 1.0, np.minimum)):
        todo, grow = np.arange(len(um)), step.copy()
        while len(todo):
            x = end[todo]
            v, err = _value_and_err(a, bm[todo], cm[todo], x)
            vbr[todo] = np.maximum(vbr[todo], np.abs(v) + err)
            todo = todo[((np.sign(v) != side[todo]) | (np.abs(v) <= err)) & (x != limit[todo])]
            end[todo] = stop(end[todo] + out * grow[todo], limit[todo])
            grow[todo] *= 2.0
    w = w.copy()
    w[mix] = glo
    return _Pieces(np.concatenate([u, ghi]), np.concatenate([w, wm]),
                   np.concatenate([bb, bm]), np.concatenate([cc, cm]), glo, ghi, vbr)


def _abs_integral_l1(pw: PiecewiseHyperbolic) -> tuple[float, float]:
    """(integral of |a/x + b + c log x| over the segments, error bound).

    On the pieces of _split, v is monotone and of one sign, so each integral
    is the absolute value of the signed one, taken in difference form; each
    root bracket is enclosed in [0, 2h vbr] and counted at its midpoint, as
    in _abs_power_integral.  The bound adds the float64 rounding of the
    pieces and their sum under the assumptions of _sq_integral.  On a piece
    (u, w] of width d, the a part is within 3 eps of |a| log(w/u) (the logs
    add up to at most L = -log(eps)) and the b part within eps |b| d; an end
    value x (log x - 1) is within eps x (2L + 1), so the c part is within
    eps |c| (3L + 1)(u + w).  Adding the parts costs
    eps (|a| log(w/u) + |b| d + |c| L d), and the brackets one more addition.
    """
    pc = _split(pw)
    u, w = pc.u, pc.w
    pieces = np.abs(pw.a * np.log1p((w - u) / u) + pc.b * (w - u)
                    + pc.c * (w * (np.log(w) - 1.0) - u * (np.log(u) - 1.0)))
    brackets = pc.bracket_power(1.0)
    power, L = float(np.sum(pieces)) + brackets, -math.log(pw.eps)
    err = (1.0 + 64.0 * _F64_EPS) * brackets + _F64_EPS * (
        4.0 * abs(pw.a) * L + 2.0 * np.dot(np.abs(pc.b), w - u)
        + (4.0 * L + 2.0) * np.dot(np.abs(pc.c), u + w)
        + (math.log2(len(pieces)) + 26.0) * 0.5 * power)
    return power, float(err)


@functools.cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].  leggauss's nodes take
    Newton steps on the three-term recurrence in long double, and the
    weights 2 / ((1 - x^2) P_n'(x)^2) come from the polished nodes: leggauss
    itself leaves weights several hundred eps off at 24 points."""
    def legendre(x):                    # (P_n(x), P_n'(x))
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (p0 - x * p1) / (1 - x * x)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        pn, slope = legendre(x)
        x = x - pn / slope
    slope = legendre(x)[1]
    return x.astype(np.float64), (2 / ((1 - x * x) * slope * slope)).astype(np.float64)


# Gauss orders tried on a piece, lowest first; _ORDER[k] is the lowest one
# of at least k points (0 past the top)
_LADDER = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
_ORDER = np.array([0] + [min(n for n in _LADDER if n >= k) for k in range(1, 33)] + [0],
                  dtype=np.uint8)
_TARGET = 2.0 ** -50               # truncation share of a piece's integral
_GAP = 0.75                        # share of min |v| the ellipse may use up
_MAX_DEPTH = 60
_MAX_SPLIT = 4                     # pieces per piece of _split a round may hold


def _abs_power_integral(pw: PiecewiseHyperbolic, p: float) -> tuple[float, float]:
    """(integral of |a/x + b + c log x|^p over the segments, error bound).

    The pieces of _split are monotone and of one sign, and each root
    bracket is enclosed in [0, 2h vbr^p] (_Pieces.bracket_power).  On a
    piece (u, w] of half-width h, m <= |v| <= M, from the end values less
    or plus the rounding bound Ev below.  Take r < u with r (|a|/(u-r)^2 + |c|/(u-r))
    <= g m, g = _GAP: each z on the Bernstein ellipse of semi-minor axis r
    lies within r of some x in [u, w], so |v(z) - v(x)| <= g m, sign(v) v(z)
    keeps a positive real part and |v(z)| <= M + g m.  (sign(v) v)^p is then
    analytic inside, and the Gauss n-point rule misses its integral by at
    most h (64/15) (M + g m)^p rho^(2-2n) / (rho^2 - 1) for any rho up to
    r/h + sqrt(1 + r^2/h^2) (Trefethen, SIAM Rev. 2008, Thm 4.5, whose I_n
    has n + 1 points; at n = 1, |I(T_2) - I_1(T_2)| = 4/3 <= 32/15 keeps the
    constant); rho = max(2r/h, 1 + r/h) saves a square root.  In t = r/u
    the condition is implied by t/(1-t)^2 <= g m / (|a|/u + |c|), solved in
    closed form.  The order is chosen in logarithms, so (M + g m)^p may
    exceed the float range.

    A piece takes the lowest order of _LADDER whose bound is within its
    tol, set on the pieces _split makes: a _TARGET share of
    2h max(m, M (p+1)^(-1/p))^p, the larger of the lower bound 2h m^p of its
    integral and 2h M^p/(p+1), its integral if |v| grew linearly from 0 to
    M.  A piece that needs more than the top order is halved, the halves
    taking half its tol each, except that one whose m lies below
    M (p+1)^(-1/p) (it touches or nears a root) passes its whole tol to the
    half at its small end, which is so cut geometrically toward the root.
    A piece settles on its trivial enclosure [2h m^p, 2h M^p], whose
    half-width is then its error, once that fits its tol, its tol has
    underflowed to 0 or overflowed to inf (the top of its enclosure is then
    inf as well), it lies below rounding noise (M <= 4 Ev; a segment
    where v == 0 settles so at once, at no error), or it is _MAX_DEPTH
    halvings deep.  Should a round hold more than _MAX_SPLIT times the
    pieces _split made (and more than 2^16), the pieces it cannot integrate
    all settle there, so memory stays a fixed multiple of the first
    round's.  The tol of every Gauss piece goes into the error.  A
    power past the float range is reported as inf, with an inf error.

    Rounding, under the assumptions of _sq_integral plus pow within 1 ulp
    and leggauss nodes within eps and weights within 2 eps relative (a test
    checks the ladder against mpmath): a node is within 3 eps w of its exact
    place and |v'| <= (|a|/u + |c|)/u, which moves v by at most
    3 eps (w/u) (|a|/u + |c|); with the evaluation bound of _value_and_err
    at u (which bounds it on the piece, u <= x <= 1) this makes Ev, whose
    slack also absorbs the second-order slip of a split at a rounded
    critical point.  With Z = M + Ev, the mean value theorem puts a
    computed |v|^p within p Ev Z^(p-1) + eps Z^p, and the weighted sum of n
    terms and the product by h add (n + 6) eps / 2 relative: a piece's
    value is within 2h Z^p (p Ev / Z + (n + 9) eps / 2).  Each order's sum
    is pairwise.
    """
    a, pc = pw.a, _split(pw)
    pending = [pc.u, pc.w, pc.b, pc.c]
    power = pc.bracket_power(p)
    err = (1.0 + 64.0 * _F64_EPS) * power
    budget = max(_MAX_SPLIT * len(pending[0]), 1 << 16)
    wide = pending[1] > pending[0]
    if not np.all(wide):
        pending = [x[wide] for x in pending]
    pending.append(None)
    for depth in range(_MAX_DEPTH + 1):
        if not len(pending[0]):
            break
        last = depth == _MAX_DEPTH or len(pending[0]) > budget
        halves = []
        for i in range(0, len(pending[0]), _BLOCK):
            block = [None if x is None else x[i:i + _BLOCK] for x in pending]
            order, part, bound, split = _triage(a, p, *block, last)
            total, rounding = _gauss_sum(a, p, *block[:4], order)
            power += part + total
            err += bound + rounding
            halves.append(split)
        pending = [np.concatenate(col) for col in zip(*halves)]
    if math.isinf(power):
        return math.inf, math.inf
    return power, err * (1.0 + 1e-9)


def _triage(a, p, u, w, bb, cc, tol, last):
    """One round of _abs_power_integral over pieces (u, w] with tolerances
    tol (None on the pieces _split made): (the Gauss order of each piece, 0
    for none; the value of the pieces settled by their enclosure; the error
    bound of both kinds; the halves of the rest as (u, w, b, c, tol))."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        h = 0.5 * (w - u)
        slope = np.abs(a) / u + np.abs(cc)          # bounds u |v'| on the piece
        vu, ev = _value_and_err(a, bb, cc, u)
        ev += 3.0 * _F64_EPS * (w / u) * slope
        av, aw = np.abs(vu), np.abs(_value(a, bb, cc, w))
        m = np.minimum(av, aw) - ev
        big = np.maximum(av, aw) + ev
        floor = (p + 1.0) ** (-1.0 / p) * big
        if tol is None:
            tol = (2.0 * _TARGET) * h * np.maximum(m, floor) ** p
        s = slope / (_GAP * m)
        t = 2.0 / (2.0 + s + np.sqrt(s * (4.0 + s)))
        beta = t * u * (1.0 - 2.0 ** -30) / h
        # below beta + sqrt(beta^2 + 1): the ellipse of a smaller rho lies inside
        rho = np.maximum(2.0 * beta, 1.0 + beta)
        # log of the one-point bound over tol; NaN and inf fail need < 33
        excess = (np.log((64.0 / 15.0) * h / (tol * (rho * rho - 1.0)))
                  + p * np.log(big + _GAP * m))
        need = 1.0 + excess / (2.0 * np.log(rho))
        need = np.where((m > 0.0) & (tol > 0.0) & (tol < math.inf) & (need < 33.0),
                        np.ceil(need * (1.0 + 1e-12) + 1e-9), 33.0)
        order = _ORDER[np.maximum(need, 1.0).astype(np.intp)]
        done = order > 0
        z = big + ev
        bound = float(np.sum(tol, where=done))
        bound += float(np.sum(h * z ** p * (2.0 * p * ev / z + _F64_EPS * (order + 9.0)),
                              where=done))
        rest = np.flatnonzero(~done)
        u, w, bb, cc, h, m, big, ev, tol, floor, left = (
            v[rest] for v in (u, w, bb, cc, h, m, big, ev, tol, floor, av <= aw))
        low, high = np.maximum(m, 0.0) ** p, big ** p
        mid = 0.5 * (u + w)
        settle = ((h * (high - low) <= tol) | (tol == 0.0) | (big <= 4.0 * ev)
                  | (mid <= u) | (mid >= w) | last)
        hs, ls, gs = h[settle], low[settle], high[settle]
        value = float(np.dot(hs, gs + ls))
        bound += float(np.dot(hs, gs - ls)) + 64.0 * _F64_EPS * value
    split = ~settle
    # halves share tol, except that near a root the half at the small end
    # keeps it whole, so that the piece is cut geometrically toward the root
    near, left, mid, tol = (m < floor)[split], left[split], mid[split], 0.5 * tol[split]
    halves = (np.concatenate([u[split], mid]), np.concatenate([mid, w[split]]),
              np.tile(bb[split], 2), np.tile(cc[split], 2),
              np.concatenate([np.where(near & left, 2.0, 1.0) * tol,
                              np.where(near & ~left, 2.0, 1.0) * tol]))
    return order, value, bound, halves


def _gauss_sum(a, p, u, w, bb, cc, order):
    """(sum of the Gauss rules of the given orders over the pieces, bound on
    the rounding of the pairwise sum of each order's group and the Python
    sum of the groups); order 0 pieces are skipped."""
    power = err = 0.0
    for n in np.flatnonzero(np.bincount(order)[1:]) + 1:
        sel = np.flatnonzero(order == n)
        x0, w0 = _gl_nodes(int(n))
        gu, gw = u[sel], w[sel]
        half = 0.5 * (gw - gu)
        nodes = x0[:, None] * half + 0.5 * (gw + gu)
        vals = a / nodes + bb[sel]
        if np.any(cc[sel]):
            vals += cc[sel] * np.log(nodes)
        np.abs(vals, out=vals)
        with np.errstate(over="ignore"):        # a power past the float range is inf
            total = float(np.sum(half * (w0 @ vals ** p)))
        power += total
        err += ((math.log2(len(half)) + 25.0) * 0.5 + 1.0) * _F64_EPS * total
    return power, err


def check_p(p: float) -> None:
    """Raise ValueError unless the engine integrates the p-th power."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")


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
    a = pw.a
    if p == 2.0:
        power, quad_err = _sq_integral(pw)
    elif a == 0.0 and not np.any(pw.c):
        power = float(np.sum(np.abs(pw.b) ** p * np.diff(pw.edges)))
        # terms of one sign, each within eps (two with a pow), then np.sum as
        # in _sq_integral
        quad_err = (math.log2(pw.segment_count) + 27.0 + 2.0 * (p != 1.0)) * _F64_EPS * power
    elif p == 1.0:
        power, quad_err = _abs_integral_l1(pw)
    else:
        power, quad_err = _abs_power_integral(pw, p)

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
