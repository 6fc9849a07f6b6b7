"""Certified L_p distances on (0, infinity) via exact piecewise flattening.

A difference  f - generator  is flattened over (eps, 1] into segments on
which it equals exactly  a/x + b + c log x  (a is global: the 1/x tail
coefficient, rounded once from its exact value).  The flatten reads only
the integer lanes of f (beurling.Lanes: coefficients, theta numerators
and denominators, irregular terms), so its checks, bounds and scatter
indices are array expressions.  The segments are the exact breakpoint
lattice {theta_k / j}: one segment per distinct breakpoint, with the
jumps of coincident terms summed, including breakpoints where that sum
is zero; one ascending edge array holds them.  When every theta is 1/k
and one is 1, the lattice is every x = 1/m and the jumps are divisor
sums there; otherwise the lattice repeats with period 1 in y = 1/(Q x),
Q the lcm of the theta denominators, and one period is sorted and
merged, and its tiles are made on demand down to eps (the whole lattice
is one period when Q eps >= 1, with Phi terms, or past 2^53 in its
integer products).  The jumps are made and summed a _BLOCK at a time and
written straight into the final edge, b and c arrays, so a flatten holds
16 B a segment without Phi terms (no rho jump moves c: one constant) and
24 B with them, besides the merged period or the int64 scatter lanes
of a dense lattice, and O(_BLOCK) transients.  Integer jumps are carried
exactly, so c is always exact and b is exact when every coefficient is
an integer; drift_bound bounds what the remaining long double lane, the
start state and the cast to float64 can round, from the shape of the
lattice (each term's breakpoint count, jump size and coefficient
rounding) and from maxima and counts of the states, none of which
depends on how the jumps are chunked.  p = 2 takes a closed form from
values at the edges, summed a _pairwise_sum leaf at a time.  At any
other p, _split cuts the segments at critical points into monotone
pieces and cuts a bracket out around each root, enclosed at its
midpoint; p = 1 integrates the pieces in closed form, leaf by leaf, and
general p by Gauss-Legendre at the lowest order whose Bernstein-ellipse
bound meets a fixed relative target, cutting pieces toward roots.  Every
integrator bounds its own float64 rounding, and the truncation and
rounding bounds are proofs.  The regions (0, eps) and (1, inf) are
handled by a sup-bound rounded up and by the exact tail integral of
(a/x)^p, so every report is an interval certified to hold the norm.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _fold
from .beurling import BeurlingSum, Generator, GeneratorKind, Lanes
from .special import _U, _up, float_up, gamma_upper, log_gamma_upper
from .transform import TStep

_LD_EPS = float(np.finfo(np.longdouble).eps)
_F64_EPS = float(np.finfo(np.float64).eps)

FLATTEN_BUDGET = 20_000_000
_BLOCK = 1 << 15        # jumps, segments or pieces per cache-sized block


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
    the final cast to float64.  Without Phi terms c is the generator's
    constant, held as a read-only 0-stride view: read it, never write it.
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
    the certified enclosure is [lower, upper], whose sums and p-th roots
    are rounded outward (_root).  far_tail records the exact
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
        if math.isinf(self.quad_error):
            # nothing is known below, as when the power only passed the float range
            return 0.0
        if not math.isfinite(self.power_value):
            return math.inf
        # the greatest double at or below power_value - quad_error
        return _root(-float_up(self.quad_error, -self.power_value), self.p, 0.0)

    @property
    def upper(self) -> float:
        parts = (self.power_value, self.quad_error, self.tail_low, self.tail_high)
        if not all(map(math.isfinite, parts)):
            return math.inf
        return _root(float_up(*parts), self.p, math.inf)

    @property
    def err(self) -> float:
        upper = self.upper
        if not math.isfinite(upper):
            return math.inf
        # value +- err holds [lower, upper]: each difference rounded up
        return max(float_up(self.value, -self.lower), float_up(upper, -self.value))


def _root(s: float, p: float, toward: float) -> float:
    """s^(1/p) for a finite s (0 where s <= 0), stepped toward 0 or inf past
    its rounding: pow within 1 ulp (2 u, u = 2^-53) and, unless 1/p is an
    exact double, the rounded 1/p (|log s| u / p), relative; 2 u more covers
    the factor's own rounding and second-order terms."""
    if s <= 0.0 or p == 1.0:
        return max(s, 0.0)
    k = 4.0 if Fraction(1.0 / p) * Fraction(p) == 1 else 4.0 + abs(math.log(s)) / p
    return math.nextafter(s ** (1.0 / p) * (1.0 + k * _U if toward else 1.0 - k * _U), toward)


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
        return rp.concat(rm.negated()), pp.concat(pm.negated()), ip - im, float_up(sp, sm)
    raise TypeError(f"cannot flatten {type(f).__name__}")


# integers below this are exact doubles, so num / (den j) rounds once
_EXACT = 2 ** 53
# distinct breakpoints num/q, num'/q' differ by at least 1/(q q'), which
# exceeds an ulp of either unless num q' reaches this: below it equal
# doubles are equal rationals
_SEPARABLE = 2 ** 51


def _ld_coeff(c: Fraction) -> tuple[np.longdouble, float]:
    """(c rounded to long double, its exact rounding error) for a
    coefficient that is not an integer."""
    cl = np.longdouble(c.numerator) / np.longdouble(c.denominator)
    return cl, float(abs(Fraction(*cl.as_integer_ratio()) - c))


@dataclass(frozen=True)
class _Jumps:
    """Summed jumps of (b, c) at the n distinct breakpoints above eps,
    descending (two distinct rationals can round to one double and repeat
    an x), made on demand.

    take(i0, i1) gives (xs, db, dc) of jumps [i0, i1): db is exact when it
    is int64, and then exact is True; dc is int64, or None when no term
    moves c.  err bounds the rounding in a long double db, from the shape
    of the lattice alone (_jump_err), so no chunking or summation order
    moves it.
    """

    n: int
    exact: bool
    take: Callable[[int, int], tuple]
    err: float


def _jump_err(rho: Lanes, phi: Lanes, counts, roundings: int) -> float:
    """sum_t count_t (delta_t + _LD_EPS roundings mu_t): a bound on the
    rounding in the summed long double jumps that holds for any order of
    their sums (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 4).

    Term t (rho terms first) has counts[t] breakpoints above eps.  A rho
    term's jump c_t rounds once to long double, within delta_t
    (_ld_coeff), and mu_t = |c_t|; a Phi jump w_t log(num_t / (den_t j))
    and the logs it takes are at most mu_t = |w_t| log(num_t den_t j_max),
    j_max its last j above eps.  A summed jump takes at most `roundings`
    long double roundings, each within _LD_EPS of the sum of mu_t over the
    terms through it.  The long double sums here sit far inside the drift
    bound's (1 + 1e-9) slack.
    """
    counts = np.asarray(counts, dtype=np.int64)
    logs = [math.log(num * den * max(num // den + count, 1)) for num, den, count in
            zip(phi.num.tolist(), phi.den.tolist(), counts[len(rho):].tolist())]
    mags = np.concatenate([np.abs(rho.coeff), np.abs(phi.coeff) * np.array(logs)])
    mags = mags.astype(np.longdouble)
    deltas = np.zeros(len(mags), dtype=np.longdouble)
    for i, c in rho.irregular.items():
        cl, deltas[i] = _ld_coeff(c)
        mags[i] = abs(cl)
    return float(np.dot(counts.astype(np.longdouble), deltas + _LD_EPS * roundings * mags))


def _pairwise_sum(n: int, leaf, start: int = 0):
    """np.sum of the n entries [start, start + n) in NumPy's own order,
    from leaf(i0, i1), the np.sum of entries [i0, i1) (or of each lane).

    np.add.reduce over one contiguous array adds pairwise (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., ch. 4): a stretch of
    more than 128 entries is halved at n // 2 less its remainder mod 8, and
    a shorter one summed in eight accumulators.  np.sum of any stretch the
    halving reaches is its value there, so the leaves stop at _BLOCK
    entries (128 at least) and are made one at a time, in ascending order.
    """
    if n <= max(_BLOCK, 128):
        return leaf(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(half, leaf, start) + _pairwise_sum(n - half, leaf, start + half)


def _sum_rounding(n: int) -> float:
    """np.sum of n float64 terms is within _sum_rounding(n) * _F64_EPS of
    the sum of their magnitudes: np.add.reduce adds pairwise, in blocks of
    at most 128 in eight accumulators (_pairwise_sum), so a term meets at
    most log2(n) + 25 additions, each within half an eps."""
    return (math.log2(n) + 25.0) * 0.5


def _lattice_jumps(rho: Lanes, phi: Lanes, eps: float) -> _Jumps:
    """Jumps when every theta is 1/k and one term has theta = 1: that term
    breaks at every x = 1/m but x = 1, whose floor is in the start state, so
    the breakpoints are 1/m for m >= 2, and the jump at m is a divisor sum
    over the terms with k | m, scattered as D[k::k] += c_k into int64 lanes
    over m <= 1/eps.  A Phi term of weight w jumps by -w log m in b and -w
    in c there, so the log lane and non-integer coefficients are the only
    inexact parts; they are made a chunk at a time."""
    top = int(1.0 / eps) + 1
    db_int = np.zeros(top + 1, dtype=np.int64)
    for k, c in zip(rho.den.tolist(), rho.coeff.tolist()):
        if c:
            db_int[k::k] -= c
    # (k, coeff rounded to long double)
    floats = [(int(rho.den[i]), _ld_coeff(coeff)[0]) for i, coeff in rho.irregular.items()]
    weights = None
    if len(phi):
        weights = np.zeros(top + 1, dtype=np.int64)
        for k, w in zip(phi.den.tolist(), phi.coeff.tolist()):
            weights[k::k] += w
    # 1/m descends, so the breakpoints above eps are the m up to m_cap
    m_cap = top
    while 1.0 / m_cap <= eps:
        m_cap -= 1
    ks = np.concatenate([rho.den, phi.den])
    # at each m the scatter and the sum into the integer jump round once per
    # irregular lane; -w log m takes logl's ulp, a product and a sum
    roundings = len(floats) + 2 * (weights is not None)
    err = _jump_err(rho, phi, m_cap // ks - (ks == 1), roundings)

    def take(i0, i1):
        at = slice(i0 + 2, i1 + 2)
        m = np.arange(at.start, at.stop)
        db, dc, parts = db_int[at], None, []
        if floats:
            v = np.zeros(len(m), dtype=np.longdouble)
            for k, cl in floats:
                v[-at.start % k::k] -= cl
            parts.append(v)
        if weights is not None:
            w = weights[at]
            dc = -w
            parts.append(-w * np.log(m.astype(np.longdouble)))
        if parts:
            db = db.astype(np.longdouble)
            for v in parts:
                db += v
        return 1.0 / m, db, dc

    return _Jumps(m_cap - 1, not roundings, take, err)


def _merged_jumps(rho: Lanes, phi: Lanes, eps: float) -> _Jumps:
    """Jumps for arbitrary rational thetas, from one period of the lattice.

    With Q = lcm(den_k) and A_k = theta_k Q, term k breaks where
    y = 1/(Q x) = j / A_k, so the lattice repeats with period 1 in y.  A
    period holds j0 <= j < j0 + A_k of each term (j0 = 1, or 2 for
    theta = 1, whose x = 1 is in the start state), and period P the same
    pattern at j + P A_k: one period is sorted and merged, and _tile makes
    the others on demand, its summed jumps at their own x, down to eps.  The
    lattice is one period, the whole of it, when Q eps >= 1, with a Phi
    term (whose jump w log(theta / j) moves with j), or where den j would
    reach _EXACT.

    Each breakpoint num/(den j) is one correctly rounded division of exact
    integers, so equal rationals give equal doubles.  A stable sort of the
    per-term runs groups equal doubles; where distinct rationals can share
    a double, cross-multiplied integers decide which entries of a group
    are one rational, and the others stay separate breakpoints, ordered
    exactly, as are the periods."""
    nums = np.concatenate([rho.num, phi.num]).tolist()
    dens = np.concatenate([rho.den, phi.den]).tolist()
    counts = []                      # breakpoints above eps of each term
    for num, den in zip(nums, dens):
        j0, j = num // den + 1, int(num / den / eps) + 1
        while j >= j0 and num / (den * j) <= eps:
            j -= 1
        counts.append(j - j0 + 1)
    q, periods = 1, 1
    for den in dens:
        q = math.lcm(q, den)
        if q >= 1.0 / eps:
            break
    if not len(phi) and q < 1.0 / eps:
        span = [num * (q // den) for num, den in zip(nums, dens)]        # A_k
        periods = max([1] + [-(c // -a) for c, a in zip(counts, span)])
        if max((den * (num // den + periods * a) for num, den, a in zip(nums, dens, span)),
               default=0) >= _EXACT:
            periods = 1
    window = [min(c, a) for c, a in zip(counts, span)] if periods > 1 else counts

    spec = []                        # (num, den, first j, count in the period)
    xs_parts = []
    for num, den, count in zip(nums, dens, window):
        j0 = num // den + 1
        if num < _EXACT and den * (j0 + count) < _EXACT:
            x = num / (den * np.arange(j0, j0 + count, dtype=np.int64))
        else:
            x = np.array([num / (den * j) for j in range(j0, j0 + count)], dtype=np.float64)
        spec.append((num, den, j0, count))
        xs_parts.append(x)
    xs = np.concatenate(xs_parts) if spec else np.empty(0)
    size = len(xs)

    exact = not len(phi) and not rho.irregular
    db = np.zeros(size, np.int64 if exact else np.longdouble)
    dc = np.zeros(size, np.int64) if len(phi) else None
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
        elif i not in rho.irregular:
            db[s] = -coeff
        else:
            db[s] = -_ld_coeff(coeff)[0]

    order = np.argsort(-xs, kind="stable")
    xs = xs[order]
    first = np.ones(size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    spread = (max((num for num, *_ in spec), default=0)
              * max((den * (j0 + count) for _, den, j0, count in spec), default=0))
    tied = np.flatnonzero(~first) if spread >= _SEPARABLE else []
    offsets = np.cumsum([0] + [count for *_, count in spec])
    if len(tied):
        # an entry tied with its predecessor is the same rational iff
        # num q' == num' q; Python ints where int64 products could overflow
        kind = object if spread >= 2 ** 63 else np.int64
        nums_k, dens_k, j0s = (np.array(v, dtype=kind) for v in list(zip(*spec))[:3])

        def ratio(pos):
            t = np.searchsorted(offsets, pos, side="right") - 1
            return nums_k[t], dens_k[t] * (j0s[t] + (pos - offsets[t]).astype(kind))

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

    def merged(lane):
        return None if lane is None else np.add.reduceat(lane[order], starts)

    xs, db_sum, dc = xs[starts], merged(db), merged(dc)
    if periods == 1:
        # xs descends, so the breakpoints above eps are a prefix
        keep = len(xs) - int(np.searchsorted(xs[::-1], eps, side="right"))
        take = functools.partial(_slices, xs, db_sum, dc)
    else:
        # period P at j + P A_k: den (j + P A_k) is an exact double, so each
        # x is one correctly rounded division, as in the pattern
        pos = order[starts]
        t = np.searchsorted(offsets, pos, side="right") - 1
        num_t, den_t, a_t = (np.array(v, dtype=np.int64)[t] for v in (nums, dens, span))
        take = functools.partial(_tile, num_t, den_t * a_t,
                                 den_t * (num_t // den_t + 1 + pos - offsets[t]), db_sum)
        # every period but the last lies above eps: the longest term has a
        # breakpoint above eps in that one
        width = len(starts)
        last = take((periods - 1) * width, periods * width)[0]
        keep = periods * width - int(np.searchsorted(last[::-1], eps, side="right"))
    run_max = int(np.max(np.diff(np.append(starts, size))[:keep], initial=1))
    # a run of r jumps is summed with r - 1 roundings; a Phi jump rounds its
    # three logs (each within an ulp), two differences and a product
    roundings = 0 if exact else run_max - 1 + 3 * bool(len(phi))
    return _Jumps(keep, exact, take, _jump_err(rho, phi, counts, roundings))


def _tile(num, den_a, base, db, i0, i1):
    """(xs, db, None) of jumps [i0, i1) of a tiled lattice: entry k of
    period P breaks at num_k / (P den_k A_k + base_k), taken in rows of
    whole periods and the parts of periods at either end."""
    size, xs, dbs = len(base), [], []
    while i0 < i1:
        p, k = divmod(i0, size)
        rows = max((i1 - i0) // size, 1) if k == 0 else 1
        stop = min(size, k + i1 - i0)
        q = np.multiply.outer(np.arange(p, p + rows, dtype=np.float64), den_a[k:stop])
        q += base[k:stop]
        xs.append(np.divide(num[k:stop], q, out=q).ravel())
        dbs.append(np.tile(db[k:stop], rows))
        i0 += rows * (stop - k)
    return np.concatenate(xs), np.concatenate(dbs), None


def _slices(xs, db, dc, i0, i1):
    return xs[i0:i1], db[i0:i1], None if dc is None else dc[i0:i1]


class _IntRun:
    """The running state of an integer jump lane, chunk by chunk, checked
    exact in float64: the sum of |jumps| over the lane bounds every partial
    state, and its float64 sum is exact below 2^53."""

    def __init__(self, start: int):
        self.state, self.total = start, 0.0

    def states(self, jumps: np.ndarray) -> np.ndarray:
        self.total += float(np.sum(np.abs(jumps), dtype=np.float64))
        if self.total >= 2.0 ** 52:
            raise OverflowError("integer jumps too large for an exact float64 state")
        out = np.cumsum(jumps)
        out += self.state
        self.state = int(out[-1])
        return out


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
    theta is 1/k and one is 1, the lattice is every 1/m and _lattice_jumps
    builds the jumps as divisor sums by scatter; otherwise the lattice
    repeats with period 1 in y = 1/(Q x), Q the lcm of the theta
    denominators, and _merged_jumps sorts one period, sums its coincident
    breakpoints and tiles it (one period is the whole lattice when
    Q eps >= 1, with Phi terms, or past 2^53 in the tiling's products).

    The jumps come a _BLOCK at a time, back to front of the ascending
    segments, and their running sums go straight into edges, b and c: no
    full-length long double or tiled array is made.  The integer states
    carry exactly; the long double one folds its carry into a chunk's first
    jump, which gives the roundings of one cumulative sum over the whole
    lattice.  drift_bound is built from the lattice's shape (_jump_err)
    and from the count of nonzero jumps and the largest states, so neither
    the segments nor the bound depend on the chunking.
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
    sup_bound = float_up(sup_bound, abs(b_gen))
    # the tail coefficient must vanish exactly for class-C sums, so it is
    # rounded once from its exact value
    a = float(inv_coeff)
    if len(rho):
        a += rho.tail_float()

    # state just below x = 1, where only theta = 1 has floor(theta / x) = 1;
    # a Phi term there adds w (floor(theta) log theta - log floor(theta)!) = 0
    at_one = np.flatnonzero(rho.den == 1).tolist()
    b_exact = Fraction(b_gen) - sum((rho.irregular.get(i, int(rho.coeff[i]))
                                     for i in at_one), start=Fraction(0))
    b0 = float(b_exact)
    b0_err = float(abs(Fraction(b0) - b_exact))
    c0 = int(c_gen) - int(phi.coeff[phi.den == 1].sum())

    # with theta = 1 the lattice is every 1/m, so no sort holds fewer entries
    dense = (np.all(rho.num == 1) and np.all(phi.num == 1)
             and (np.any(rho.den == 1) or np.any(phi.den == 1)))
    jumps = (_lattice_jumps if dense else _merged_jumps)(rho, phi, eps)

    # each chunk's states i0 + 1 .. i1 land at n - i1 .. n - i0 - 1, so the
    # segments ascend; state 0, just below x = 1, is the last
    n = jumps.n
    # without Phi terms no jump moves c, so it is one read-only constant
    c = (np.full(n + 1, float(c0)) if len(phi)
         else np.broadcast_to(np.float64(c0), (n + 1,)))
    edges, b = np.empty(n + 2), np.empty(n + 1)
    edges[0], edges[-1], b[n] = eps, 1.0, b0
    b_run, c_run = _IntRun(0), _IntRun(c0)
    s_run, s_max, b_max, nonzero = np.longdouble(0.0), 0.0, abs(b0), 0
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        xs, db, dc = jumps.take(i0, i1)
        out = slice(n - i1, n - i0)
        edges[n - i1 + 1:n - i0 + 1] = xs[::-1]
        if dc is not None:
            c[out] = c_run.states(dc)[::-1]
        if jumps.exact:
            v = b0 + b_run.states(db).astype(np.float64)
        else:
            nonzero += np.count_nonzero(db)
            s = np.array(db)
            s_run = _fold(s, s_run)
            s_max = max(s_max, float(np.max(np.abs(s))))
            v = (np.longdouble(b0) + s).astype(np.float64)
        b[out] = v[::-1]
        b_max = max(b_max, float(np.max(np.abs(v))))
    # b drift: the start state, the jumps, their cumulative sum and the
    # rounding to float64; c is exact
    if jumps.exact:
        drift = b0_err if b0.is_integer() else b0_err + _F64_EPS * b_max
    else:
        drift = (b0_err + jumps.err + _LD_EPS * nonzero * s_max
                 + (_LD_EPS + _F64_EPS) * b_max)
    # absorbs the rounding of the bound's own float64 arithmetic
    drift = float(drift) * (1.0 + 1e-9)

    return PiecewiseHyperbolic(
        edges=edges, b=b, c=c, a=a, sup_const=sup_bound, has_log_tail=log_tail,
        drift_bound=drift,
    )


def _near_zero_tail(pw: PiecewiseHyperbolic, p: float) -> float:
    """Bound integral_0^eps |difference|^p dx; inf only when the bound
    itself passes the float range.

    With the log tail, Minkowski gives (cst eps^(1/p) + G^(1/p))^p, with
    G = Gamma(p + 1, L), L = -log eps, the integral of |log x|^p on (0, eps).
    Rounded up: with the formula's operations within k u (u = 2^-53), the
    result times 1 + (k + 2) u is stepped up an ulp.  cst^p eps takes a pow
    and a product: k = 3.  Gamma(a, x) takes a = p + 1 and x = L stepped to
    its larger side (it grows with a >= 2, falls with x); the rounded 1/p
    moves eps^(1/p) and G^(1/p) by L u/p and |log G| u/p, and with the pows,
    the product, the sum and the p-th power, k = 2 + 4p + L + |log G|.
    """
    e, cst = pw.eps, pw.sup_const
    a, x = _up(p + 1.0), math.nextafter(-math.log(e), 0.0)
    try:
        if not pw.has_log_tail:
            k, bound = 3.0, cst ** p * e
        else:
            log_part = gamma_upper(a, x)
            k = 2.0 + 4.0 * p - math.log(e) + abs(math.log(log_part))
            bound = (cst * e ** (1.0 / p) + log_part ** (1.0 / p)) ** p
        return _up(bound * (1.0 + (k + 2.0) * _U)) if cst or pw.has_log_tail else 0.0
    except OverflowError:
        # a factor passed the float range: the bound is R^p for its p-th
        # root R, taken as exp(p log R) with slack for the logarithms
        root = cst * e ** (1.0 / p)
        if pw.has_log_tail:
            root += math.exp(log_gamma_upper(a, x) / p)
        t = p * math.log(root)
        with np.errstate(over="ignore"):
            return float(np.exp(t + 1e-12 * (abs(t) + 1.0)))


def _sq_integral(pw: PiecewiseHyperbolic) -> tuple[float, float]:
    """(integral of the squared segments, bound on its float64 rounding).

    Each integral_lo^hi (a/x + b + c log x)^2 dx is taken in difference
    form, from log x, x (log x - 1) and x (log^2 x - 2 log x + 2) taken once
    at each edge; c == 0 throughout skips the c terms, exact zeros.  Each
    _pairwise_sum leaf returns the sums of its segments' integrals, of their
    magnitudes and of the bound's lanes, each np.sum's over the whole array.
    The bound assumes np.log and np.log1p within 1 ulp (NumPy's float64
    accuracy tests hold them to that), every other operation within half an
    ulp, and np.sum within _sum_rounding.  With L = -log(eps) and
    d = hi - lo, log(hi/lo) <= d / sqrt(lo hi) and AM-GM bound the six parts
    of a segment's integral by 3 (a^2 d/(lo hi) + b^2 d + c^2 L^2 d); each
    part is within 5 eps, and adding them costs 2.5 eps more.  The b c and
    c^2 parts difference the edge values x (log x - 1) and
    x (log^2 x - 2 log x + 2), rounded within 2 eps of x (L + 1) and 4 eps
    of x ((L + 1)^2 + 1).  Neighbouring segments share the rounded value at
    their common edge, so the sum sees it only times the jump of q = 2 b c
    or c^2 there (from 0 below the first edge; log 1 = 0 is exact), and
    through the 4 eps of roundings after it on each segment, at that
    segment's |q| with lo + hi <= 2.  The slack in the constants absorbs
    the other second-order terms.
    """
    a, x, b, c = pw.a, pw.edges, pw.b, pw.c
    has_c = bool(np.any(c))

    def leaf(i0, i1):
        xb, bb, cb = x[i0:i1 + 1], b[i0:i1], c[i0:i1]
        lo, hi, d = xb[:-1], xb[1:], np.diff(xb)
        lr = np.log1p(d / lo)           # log(hi/lo)
        out = a * a * d / (lo * hi)
        out += 2.0 * a * bb * lr
        if has_c:
            lx = np.log(xb)
            out += a * cb * lr * (lx[1:] + lx[:-1])     # a c (log^2 hi - log^2 lo)
        lanes = [bb * bb * d]
        out += lanes[0]
        if has_c:
            out += 2.0 * bb * cb * np.diff(xb * (lx - 1.0))
            out += cb * cb * np.diff(xb * (lx * lx - 2.0 * lx + 2.0))
            lanes.append(cb * cb * d)
            # q = b c (its r carries the 2 of 2 b c), then c^2, from the
            # segment before the leaf on, for the jump at its first edge
            j = max(i0 - 1, 0)
            for q in (b[j:i1] * c[j:i1], c[j:i1] * c[j:i1]):
                lanes += [lo * np.abs(np.diff(q, prepend=0.0)[i0 - j:]), np.abs(q[i0 - j:])]
        return np.array([np.sum(out), np.sum(np.abs(out))] + [np.sum(v) for v in lanes])

    power, out_abs, bbd, *c_lanes = _pairwise_sum(len(b), leaf)
    L = -math.log(x[0])
    err = 24.0 * (a * a / x[0] + bbd) + _sum_rounding(len(b)) * out_abs
    if has_c:
        ccd, bc_jumps, bc_abs, cc_jumps, cc_abs = c_lanes
        err += (24.0 * L * L * ccd + 4.0 * (L + 1.0) * (bc_jumps + 8.0 * _F64_EPS * bc_abs)
                + 4.0 * ((L + 1.0) ** 2 + 1.0) * (cc_jumps + 8.0 * _F64_EPS * cc_abs))
    return float(power), float(_F64_EPS * err)


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
    crit = np.where(has_crit, c, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(a, crit, out=crit)
    crit[~has_crit] = np.nan
    interior = has_crit & (crit > lo) & (crit < hi)

    u, w, bb, cc = lo, hi, b, c
    if np.any(interior):
        u = np.concatenate([lo, crit[interior]])
        w = np.concatenate([np.where(interior, crit, hi), hi[interior]])
        bb = np.concatenate([b, b[interior]])
        cc = np.concatenate([c, c[interior]])
    del crit
    vu, vw = _value(a, bb, cc, u), _value(a, bb, cc, w)
    mix = np.multiply(vu, vw, out=vw) < 0.0

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
    # one lane at a time, each replacing the one it extends
    w = np.concatenate([w, wm])
    w[:len(mix)][mix] = glo
    u = np.concatenate([u, ghi])
    bb = np.concatenate([bb, bm])
    cc = np.concatenate([cc, cm])
    return _Pieces(u, w, bb, cc, glo, ghi, vbr)


def _abs_integral_l1(pw: PiecewiseHyperbolic) -> tuple[float, float]:
    """(integral of |a/x + b + c log x| over the segments, error bound).

    On the pieces of _split, v is monotone and of one sign, so each integral
    is the absolute value of the signed one, taken in difference form and
    summed, with the bound's lanes, a _pairwise_sum leaf at a time; each
    root bracket is enclosed in [0, 2h vbr] and counted at its midpoint, as
    in _abs_power_integral.  The bound adds the float64 rounding of the
    pieces and their sum under the assumptions of _sq_integral.  On a piece
    (u, w] of width d, the a part is within 3 eps of |a| log(w/u) (the logs
    add up to at most L = -log(eps)) and the b part within eps |b| d; an end
    value x (log x - 1) is within eps x (2L + 1), so the c part is within
    eps |c| (3L + 1)(u + w).  Adding the parts costs
    eps (|a| log(w/u) + |b| d + |c| L d), and the brackets one more addition.
    """
    a, pc = pw.a, _split(pw)

    def leaf(i0, i1):
        u, w, b, c = pc.u[i0:i1], pc.w[i0:i1], pc.b[i0:i1], pc.c[i0:i1]
        d = w - u
        pieces = np.abs(a * np.log1p(d / u) + b * d
                        + c * (w * (np.log(w) - 1.0) - u * (np.log(u) - 1.0)))
        return np.array([np.sum(pieces), np.sum(np.abs(b) * d), np.sum(np.abs(c) * (u + w))])

    total, b_lane, c_lane = _pairwise_sum(len(pc.u), leaf)
    brackets = pc.bracket_power(1.0)
    power, L = float(total) + brackets, -math.log(pw.eps)
    err = (1.0 + 64.0 * _F64_EPS) * brackets + _F64_EPS * (
        4.0 * abs(a) * L + 2.0 * b_lane + (4.0 * L + 2.0) * c_lane
        + (_sum_rounding(len(pc.u)) + 0.5) * power)
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
        err += (_sum_rounding(len(half)) + 1.0) * _F64_EPS * total
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
        # the terms |b|^p (hi - lo), made and summed a leaf at a time
        power = float(_pairwise_sum(pw.segment_count, lambda i0, i1: np.sum(
            np.abs(pw.b[i0:i1]) ** p * np.diff(pw.edges[i0:i1 + 1]))))
        # terms of one sign, so their magnitudes sum to the power; each term
        # is within eps (two with a pow): a rounded width and product
        quad_err = _sum_rounding(pw.segment_count) * _F64_EPS * power
        quad_err += (1.0 + (p != 1.0)) * _F64_EPS * power
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
            # pow within an ulp, p - 1 and the quotient within half an ulp
            # each, then the sum; the rounding of a itself is not bounded
            quad_err += _F64_EPS * (2.0 * far + 0.5 * power)

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
