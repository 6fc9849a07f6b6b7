"""Slow, independent reference implementations that the tests compare the
package against, and the harnesses the acceptance tests read (coefficient
recovery from step values, certified convergence trend tables).  None of
them is used by nblab itself.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath
import numpy as np

from nblab.arith import EXACT_LIMIT, ArithProfile, _gamma_rounding
from nblab.beurling import BeurlingSum, Generator, GeneratorKind, Lanes
from nblab.norms import (_EXACT, _SEPARABLE, Difference, NormReport, PiecewiseHyperbolic,
                         _gen_offsets, _jump_err, _ld_coeff, lp_distance)
from nblab.special import EULER_GAMMA
from nblab.witnesses import ALL_FAMILIES, make_target


def naive_mu(k: int) -> int:
    """mu(k) by trial factorization; independent oracle for the sieve."""
    m, val = k, 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            val = -val
        d += 1
    return -val if m > 1 else val


def naive_mobius(n: int) -> np.ndarray:
    """mu(1..n) by trial factorization."""
    if n < 1:
        raise ValueError(f"limit must be >= 1, got {n}")
    return np.array([naive_mu(k) for k in range(1, n + 1)], dtype=np.int8)


def _g_of(profile: ArithProfile, n: int) -> Fraction:
    """g(n), exact up to EXACT_LIMIT; beyond, the exact value of the float lane."""
    return profile.g_exact(n) if n <= EXACT_LIMIT else Fraction(profile.g(n))


def family_via_make(family: str, n: int, profile: ArithProfile) -> BeurlingSum:
    """nblab.beurling.make_family written term by term from the defining
    formulas, each extra term appended on its own, and canonicalized by
    BeurlingSum.make."""
    def M(m: int) -> int:
        return profile.M(m) if m >= 1 else 0

    if family in ("sn", "vn", "bn"):
        terms = [(Fraction(profile.mu(k)), Fraction(1, k)) for k in range(1, n + 1)]
        if family == "vn":
            terms.append((-_g_of(profile, n), Fraction(1)))
        elif family == "bn":
            terms.append((-n * _g_of(profile, n), Fraction(1, n)))
        return BeurlingSum.make(terms)
    if family == "fn":
        terms = [(Fraction(M(n // k) - M(n // (k + 1))), Fraction(k, n))
                 for k in range(1, n + 1)]
        terms.append((Fraction(-1), Fraction(1, n)))
        return BeurlingSum.make(terms)
    if family == "rn":
        terms = [(Fraction(M(n // k), k), Fraction(k, n)) for k in range(1, n)]
        return BeurlingSum.make(terms)
    raise ValueError(f"unknown family {family!r}")


def family_tuples(family: str, n: int, profile: ArithProfile) -> tuple:
    """The canonical terms of nblab.beurling.make_family as its
    Fraction-tuple form built them, one (coeff, theta) pair per term
    straight from the profile's mu and Mertens arrays."""
    if family in ("sn", "vn", "bn"):
        coeffs = profile.table.mu_array(n).tolist()
        if family == "vn":
            coeffs[0] -= _g_of(profile, n)
        elif family == "bn":
            coeffs[-1] -= n * _g_of(profile, n)
        return tuple((Fraction(c) if isinstance(c, int) else c, Fraction(1, k))
                     for k, c in enumerate(coeffs, 1) if c)
    mertens = [0] + profile.mertens[:n].tolist()        # M(0..n)
    if family == "fn":
        coeffs = ((mertens[n // k] - mertens[n // (k + 1)] - (k == 1), k)
                  for k in range(n, 0, -1))
        return tuple((Fraction(c), Fraction(k, n)) for c, k in coeffs if c)
    if family == "rn":
        return tuple((Fraction(mertens[n // k], k), Fraction(k, n))
                     for k in range(n - 1, 0, -1) if mertens[n // k])
    raise ValueError(f"unknown family {family!r}")


def decomposition_checks_lcm(profile: ArithProfile, n_max: int) -> tuple[bool, bool]:
    """nblab.arith.decomposition_checks on integer numerators over
    L = lcm(1..n_max), O(n_max) bits each, so O(n_max^2) bit operations:
    G = L g(n) = sum_{k<=n} mu(k) L/k against M(n) L/n + Gam, with
    Gam = L gamma(n) = sum_{k<n} M(k) (L/k - L/(k+1)), and the float gamma
    lane within its rounding bound of Gam/L."""
    gamma = profile.gamma_float[:n_max]
    bound = _gamma_rounding(profile, n_max)
    big_l = math.lcm(*range(1, n_max + 1))
    g_num = gam_num = 0
    m_prev = q_prev = 0               # M(n-1) and L/(n-1)
    exact_ok = float_ok = True
    lanes = (profile.table.mu_array(n_max).tolist(), profile.mertens[:n_max].tolist(),
             gamma.tolist(), bound.tolist())
    for n, mu, m, gam, err in zip(range(1, n_max + 1), *lanes):
        q = big_l // n
        gam_num += m_prev * (q_prev - q)
        g_num += mu * q
        exact_ok = exact_ok and g_num == m * q + gam_num
        float_ok = float_ok and abs(gam - gam_num / big_l) <= err
        m_prev, q_prev = m, q
    return exact_ok, float_ok


def riemann_sum_via_make(a, b, n: int) -> BeurlingSum:
    """The n-point Riemann sum of T chi_[a,b] as a Beurling sum, through
    BeurlingSum.make:

    s_n(x) = ((b-a)/n) sum_k (1/theta_k) rho(theta_k/x),
    theta_k = a + (b-a) k/n.
    """
    a, b = Fraction(a), Fraction(b)
    h = (b - a) / n
    return BeurlingSum.make([(h / (a + h * k), a + h * k) for k in range(1, n + 1)])


def dilate(f: BeurlingSum, a) -> BeurlingSum:
    """K_a f(x) = f(ax), i.e. theta_k -> theta_k / a."""
    if a <= 0:
        raise ValueError(f"dilation factor must be positive, got {a}")
    a = Fraction(a) if isinstance(a, Rational) and not isinstance(a, float) else a
    return BeurlingSum.make([(c, t / a) for c, t in f.terms])


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


def gn_phi_terms(n: int, profile: ArithProfile) -> list:
    """The Phi terms of Gn(n): weight -mu(k) at 1/k for k < n and M(n-1) at
    1/n, zero weights dropped."""
    terms = [(-profile.mu(k), Fraction(1, k)) for k in range(1, n)]
    terms.append((profile.M(n - 1) if n > 1 else 0, Fraction(1, n)))
    return [(w, t) for w, t in terms if w != 0]


@dataclass(frozen=True)
class StepWeight:
    """A step function on (0, 1]: weight w_i on (cuts[i+1], cuts[i]].

    cuts is strictly decreasing with cuts[0] = 1; the support ends at the
    last cut (the function is zero on (0, cuts[-1]]).
    """

    cuts: tuple      # of Fraction, descending, len K+1
    weights: tuple   # len K, weights[i] on (cuts[i+1], cuts[i]]

    def __post_init__(self):
        if len(self.cuts) != len(self.weights) + 1:
            raise ValueError("need exactly one more cut than weights")
        if any(self.cuts[i] <= self.cuts[i + 1] for i in range(len(self.weights))):
            raise ValueError("cuts must be strictly decreasing")

    @staticmethod
    def mertens_weight(n: int, profile: ArithProfile) -> "StepWeight":
        """M(1/theta) restricted to (1/n, 1]: weight M(k) on (1/(k+1), 1/k].

        Gn(n, profile) is the transform of this weight.
        """
        cuts = tuple(Fraction(1, k) for k in range(1, n + 1))
        weights = tuple(profile.M(k) for k in range(1, n))
        return StepWeight(cuts, weights)


def apply_T(weight: StepWeight, x) -> float:
    """Tf(x) for a step weight f, in closed form.

    On each weight piece (u1, u2]: integral rho(theta/x) dtheta/theta
    = (u2 - u1)/x - (Phi(u2/x) - Phi(u1/x)).
    """
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    exact = isinstance(x, Rational) and not isinstance(x, float)
    xq = Fraction(x) if exact else float(x)
    total = 0.0
    for i, w in enumerate(weight.weights):
        if w == 0:
            continue
        u2, u1 = weight.cuts[i], weight.cuts[i + 1]
        lin = float((u2 - u1) / xq) if exact else (float(u2) - float(u1)) / xq
        phi = floor_log_integral(u2 / xq) - floor_log_integral(u1 / xq)
        total += w * (lin - phi)
    return total


def floor_log_integral(y) -> float:
    """Phi(y) = integral_1^y floor(u) du/u, exact floor for rational y."""
    m = math.floor(y)
    if m < 1:
        return 0.0
    return m * math.log(y) - math.lgamma(m + 1)


def values_at(pw: PiecewiseHyperbolic, x: np.ndarray) -> np.ndarray:
    """Evaluate a flattened difference at points in (eps, 1]."""
    idx = np.searchsorted(pw.edges, x, side="left") - 1
    idx = np.clip(idx, 0, pw.segment_count - 1)
    return pw.a / x + pw.b[idx] + pw.c[idx] * np.log(x)


def to_piecewise_exact(f: BeurlingSum, generator: Generator | None, eps) -> list:
    """Exact-rational flattening of a Beurling sum minus generator.

    Returns ascending segments (lo, hi, a, b, c) with Fraction endpoints,
    exact a and b (when the coefficients are rational) and integer c.
    A priority queue merges the per-term breakpoint streams; a term with
    theta <= eps breaks nowhere above eps and lies wholly in a.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"cutoff must lie in (0, 1), got {eps}")
    b_off, c_off, _ = _gen_offsets(generator)
    b_off = Fraction(int(b_off))
    c_off = int(c_off)

    a = f.tail_coeff
    b = b_off
    heap = []
    for i, (coeff, theta) in enumerate(f.terms):
        m0 = math.floor(theta)
        b -= coeff * m0
        x = theta / (m0 + 1)
        if x > eps:
            heapq.heappush(heap, (-x, i, m0 + 1))

    segments = []
    hi = Fraction(1)
    while heap:
        x = -heap[0][0]
        if x < hi:
            segments.append((x, hi, a, b, c_off))
            hi = x
        while heap and -heap[0][0] == x:
            _, i, j = heapq.heappop(heap)
            coeff, theta = f.terms[i]
            b -= coeff
            nxt = theta / (j + 1)
            if nxt > eps:
                heapq.heappush(heap, (-nxt, i, j + 1))
    if eps < hi:
        segments.append((eps, hi, a, b, c_off))
    segments.reverse()
    return segments


# relative error estimate lp_power_mpmath must reach: the engine's own
# rounding bounds are a few 1e-15 of the power at the least
_MPMATH_REL = 1e-20


def _quad_refined(intervals, rel: float = _MPMATH_REL, rounds: int = 16):
    """Sum of mpmath.quad of g over (u, w) for each (u, w, g) of intervals,
    bisecting every interval whose error estimate exceeds its share of rel
    times the sum until the estimates add up to at most rel times the sum.

    mpmath.quad derives its estimate from the logarithms of the differences
    of successive levels, which reads as absolute, so each integrand is
    scaled to its value at the interval's midpoint first."""
    def quad(u, w, g):
        scale = abs(g((u + w) / 2)) or 1
        v, e = mpmath.quad(lambda x: g(x) / scale, [u, w], error=True)
        return u, w, g, v * scale, e * scale

    parts = [quad(*iv) for iv in intervals]
    for _ in range(rounds):
        total = mpmath.fsum(v for *_, v, _ in parts)
        if mpmath.fsum(e for *_, e in parts) <= rel * abs(total):
            return total
        share = rel * abs(total) / len(parts)
        refined = []
        for u, w, g, v, e in parts:
            if e <= share:
                refined.append((u, w, g, v, e))
            else:
                mid = (u + w) / 2
                refined += [quad(u, mid, g), quad(mid, w, g)]
        parts = refined
    raise ArithmeticError(f"mpmath.quad's error estimate stays above {rel} of the integral")


def _mpq(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _exact_terms(f) -> tuple:
    """(rho terms, Phi terms, inv_coeff) of f, a BeurlingSum, a TStep (Gn,
    TIndicator) or a Difference of them, with Fraction coefficients."""
    if isinstance(f, Difference):
        rho_p, phi_p, inv_p = _exact_terms(f.plus)
        rho_m, phi_m, inv_m = _exact_terms(f.minus)
        return (rho_p + [(-c, t) for c, t in rho_m], phi_p + [(-w, t) for w, t in phi_m],
                inv_p - inv_m)
    return ([(Fraction(c), t) for c, t in getattr(f, "terms", ())],
            list(getattr(f, "phi_terms", ())), Fraction(getattr(f, "inv_coeff", 0)))


def segments_mpmath(f, generator: Generator | None, eps, dps: int = 30) -> list:
    """The segments (lo, hi, A, B, C) of f - generator on (eps, 1], with
    Fraction ends, A and B as mpf at dps digits and C an integer.

    f(x) = inv_coeff/x + sum c rho(theta/x) + sum w Phi(theta/x), Phi(y) =
    floor(y) log y - log floor(y)!.  Between consecutive breakpoints
    theta/j the difference is A/x + B + C log x with A = inv_coeff +
    sum c theta, and B and C come from the floors at the segment's exact
    rational midpoint, so they belong to the rational segment whatever
    the rounding of its ends."""
    rho_terms, phi_terms, inv = _exact_terms(f)
    kind = None if generator is None else generator.kind
    with mpmath.workdps(dps):
        eps = Fraction(eps)
        cuts = {eps, Fraction(1)}
        for _, t in rho_terms + phi_terms:
            cuts.update(t / j for j in range(1, math.floor(t / eps) + 1)
                        if eps < t / j < 1)
        cuts = sorted(cuts)
        a = _mpq(inv + sum((c * t for c, t in rho_terms), start=Fraction(0)))
        segments = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            b = Fraction(kind is GeneratorKind.NEG_CHI) - sum(
                (c * math.floor(t / mid) for c, t in rho_terms), start=Fraction(0))
            floors = [(w, t, math.floor(t / mid)) for w, t in phi_terms]
            c = -(kind is GeneratorKind.LAMBDA) - sum(w * m for w, _, m in floors)
            b = _mpq(b) + mpmath.fsum(w * (m * mpmath.log(_mpq(t)) - mpmath.loggamma(m + 1))
                                      for w, t, m in floors if m)
            segments.append((lo, hi, a, b, c))
        return segments


def lp_power_mpmath(f, generator: Generator | None, p: float, eps, dps: int = 30) -> float:
    """integral_eps^1 |f - generator|^p dx by mpmath at dps digits over the
    segments of segments_mpmath, refined until mpmath.quad's error estimate
    is _MPMATH_REL of it.  Splitting each segment at x = A/C and at the
    roots leaves |.|^p analytic on every subinterval, where tanh-sinh
    converges.
    """
    with mpmath.workdps(dps):
        intervals = []
        for lo, hi, a, b, c in segments_mpmath(f, generator, eps, dps):
            # keyword-only, so that the probe f(*starts) of findroot raises
            # and it takes f for a function of x alone
            def diff(x, *, a=a, b=b, c=c):
                return a / x + b + c * mpmath.log(x)

            pts = [_mpq(lo), _mpq(hi)]
            if p != 2:
                if c and pts[0] < a / c < pts[1]:
                    pts.insert(1, a / c)
                # each monotone piece holds at most one root
                vals = [diff(x) for x in pts]
                for x0, x1, f0, f1 in zip(pts, pts[1:], vals, vals[1:]):
                    if f0 * f1 < 0:
                        pts.append(mpmath.findroot(diff, (x0, x1), solver="illinois"))
                pts.sort()
            intervals += [(x0, x1, lambda x, diff=diff: abs(diff(x)) ** p)
                          for x0, x1 in zip(pts, pts[1:])]
        return float(_quad_refined(intervals))


def quad_abs_p(a, b, c, lo, hi, p, order):
    """Per-segment Gauss-Legendre estimates of integral |a/x + b + c log x|^p
    at one fixed order, with no error bound."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x0[None, :]
    vals = np.abs(a / nodes + b[:, None] + c[:, None] * np.log(nodes)) ** p
    return half * (vals @ w0)


def dilation_quotient_minus_chi(a_dil: float, eps: float = 1e-6) -> PiecewiseHyperbolic:
    """(K_a - I) lambda / (a - 1) - chi as a piecewise object, a > 1.

    Equals log(a)/(a-1) - 1 on (0, 1/a], -log(x)/(a-1) - 1 on (1/a, 1],
    and 0 on (1, inf).
    """
    if not a_dil > 1.0:
        raise ValueError(f"need dilation factor > 1, got {a_dil}")
    cut = 1.0 / a_dil
    const = math.log(a_dil) / (a_dil - 1.0) - 1.0
    if eps >= cut:
        raise ValueError(f"cutoff {eps} must be below 1/a = {cut}")
    b = np.array([const, -1.0])
    c = np.array([0.0, -1.0 / (a_dil - 1.0)])
    return PiecewiseHyperbolic(edges=np.array([eps, cut, 1.0]), b=b, c=c, a=0.0,
                               sup_const=abs(const), has_log_tail=False)


def u_chi(x):
    """The image of the unit-interval indicator: sin(2 pi x)/(pi x)."""
    return 2.0 * np.sinc(2.0 * np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class TailIntegralBound:
    value: float
    bound: float
    satisfied: bool


def rho_tail_ratio_bound(theta: float, n: int) -> TailIntegralBound:
    """integral_n^inf rho(x/theta) x^-2 dx against the bound (log theta + 1)/theta.

    For theta > n the integral has the closed form
    (log(theta/n) + 1 - euler_gamma)/theta, using
    integral_1^inf rho(u) u^-2 du = 1 - euler_gamma.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not theta > n:
        raise ValueError(f"need theta > n, got theta={theta}, n={n}")
    value = (math.log(theta / n) + 1.0 - EULER_GAMMA) / theta
    bound = (math.log(theta) + 1.0) / theta
    return TailIntegralBound(value=value, bound=bound, satisfied=value <= bound)


def whole_array_lanes(mu: np.ndarray, exact_limit: int, ps=(2.0,)) -> dict:
    """The profile lanes of mu(1..n), each from one pass over the whole range:
    float64 g, gamma and H_p for each p in ps (under "hp", keyed by p) from
    one long double cumsum each, and exact g, gamma up to exact_limit from
    Fraction sums."""
    n = len(mu)
    mertens = np.cumsum(mu, dtype=np.int64)
    ks = np.arange(1, n + 1, dtype=np.float64)
    g = np.cumsum(mu.astype(np.longdouble) / ks.astype(np.longdouble))
    gamma = np.zeros(n, dtype=np.longdouble)
    k = ks[:-1].astype(np.longdouble)
    m = mertens[:-1].astype(np.longdouble)
    gamma[1:] = np.cumsum(m / (k * (k + 1.0)))
    hp = {}
    for p in ps:
        if p == 2.0:
            step = np.log(k + 1.0) - np.log(k)
        else:
            # integral_k^(k+1) t^(-2/p) dt = ((k+1)^e - k^e)/e, in float64
            e = 1.0 - 2.0 / p
            step = ks[:-1] ** e * np.expm1(e * np.log1p(1.0 / ks[:-1])) / e
        h = np.zeros(n, dtype=np.longdouble)
        h[1:] = np.cumsum(m * step)
        hp[p] = h.astype(np.float64)
    g_exact, gamma_exact = [], []
    acc_g = acc_gamma = Fraction(0)
    for i in range(exact_limit):
        acc_g += Fraction(int(mu[i]), i + 1)
        g_exact.append(acc_g)
        if i >= 1:
            acc_gamma += Fraction(int(mertens[i - 1]), i * (i + 1))
        gamma_exact.append(acc_gamma)
    return {"g": g.astype(np.float64), "gamma": gamma.astype(np.float64),
            "hp": hp, "g_exact": g_exact, "gamma_exact": gamma_exact}


def mellin_whole_array(profile: ArithProfile, kernel: str, s: float,
                       cutoff: int, p: float = 2.0) -> float:
    """integral_1^T kernel(x) x^(-s-1) dx, as nblab.mellin.mellin_numeric
    computes it but with every term of the sum over n in one array."""
    n = np.arange(1, cutoff, dtype=np.float64)
    logn = np.log(n)
    lognn = np.log(n + 1.0)
    pow_s = np.exp(-s * logn)
    pow_s1 = np.exp(-s * lognn)
    mert = profile.mertens[:cutoff - 1].astype(np.float64)
    if kernel == "M":
        return float(np.sum(mert * (pow_s - pow_s1)) / s)
    if kernel == "xg":
        g = profile.g_float[:cutoff - 1]
        return float(np.sum(g * (np.exp((1 - s) * logn) - np.exp((1 - s) * lognn)))
                     / (s - 1))
    hp = profile.hp_values(p, cutoff - 1)
    if abs(p - 2.0) < 1e-15:
        base = (hp - mert * logn) * (pow_s - pow_s1) / s
        f_hi = -pow_s1 * (lognn / s + 1.0 / s**2)
        f_lo = -pow_s * (logn / s + 1.0 / s**2)
        return float(np.sum(base + mert * (f_hi - f_lo)))
    e = 1.0 - 2.0 / p
    base = (hp - mert * np.exp(e * logn) / e) * (pow_s - pow_s1) / s
    shifted = (np.exp((e - s) * logn) - np.exp((e - s) * lognn)) / (s - e)
    return float(np.sum(base + mert / e * shifted))


@dataclass(frozen=True)
class WholeJumps:
    """Summed jumps of (b, c) at the distinct breakpoints xs above eps,
    descending, as whole arrays: db int64 (exact) or long double, with err
    bounding the rounding in it; dc int64, or None when no term moves c."""

    xs: np.ndarray
    db: np.ndarray
    dc: np.ndarray | None
    err: float


def merged_jumps_sorted(rho: Lanes, phi: Lanes, eps: float) -> WholeJumps:
    """norms._merged_jumps as it was before it tiled one period of the
    lattice: every (term, j) breakpoint is materialized and the whole
    lattice sorted.  Jumps for arbitrary rational thetas.  Each breakpoint
    num/(den j) is one correctly rounded division of exact integers, so
    equal rationals give equal doubles.  A stable sort of the per-term
    runs groups equal doubles; where distinct rationals can share a double,
    cross-multiplied integers decide which entries of a group are one
    rational, and the others stay separate breakpoints, ordered exactly."""
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
    # a run of r jumps is summed with r - 1 roundings, a Phi jump with 3 of its own
    run_max = int(np.max(np.diff(np.append(starts, size)), initial=1))
    err = _jump_err(rho, phi, [count for *_, count in spec],
                    0 if exact else run_max - 1 + 3 * bool(len(phi)))

    def merged(lane):
        return None if lane is None else np.add.reduceat(lane[order], starts)

    return WholeJumps(xs[starts], merged(db), merged(dc), err)


@dataclass(frozen=True)
class TrendRow:
    n: int
    report: NormReport
    seconds: float


@dataclass(frozen=True)
class TrendTable:
    family: str
    p: float
    rows: tuple  # of TrendRow, ascending n

    def decreasing(self, last: int = 3) -> bool:
        """Strict decrease over the last points, beyond certified error."""
        tail = self.rows[-last:]
        if len(tail) < 2:
            return False
        return all(b.report.upper < a.report.lower
                   for a, b in zip(tail, tail[1:]))


def convergence_trend(family: str, generator: Generator | None, p: float,
                      n_grid, profile: ArithProfile, eps: float = 1e-6) -> TrendTable:
    """Certified ||f_n - generator||_p over an ascending n-grid."""
    if family not in ALL_FAMILIES:
        raise ValueError(f"family must be one of {ALL_FAMILIES}, got {family!r}")
    rows = []
    for n in sorted(n_grid):
        t0 = time.perf_counter()
        rep = lp_distance(make_target(family, n, profile), generator, p, eps)
        rows.append(TrendRow(n=n, report=rep, seconds=time.perf_counter() - t0))
    return TrendTable(family=family, p=p, rows=tuple(rows))
