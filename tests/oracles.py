"""Slow, independent reference implementations that the tests compare the
package against.  None of them is used by nblab itself.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath
import numpy as np

from nblab.arith import EXACT_LIMIT, ArithProfile
from nblab.beurling import BeurlingSum, Generator, GeneratorKind
from nblab.norms import _F64_EPS, PiecewiseHyperbolic, _gen_offsets
from nblab.transform import EULER_GAMMA


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


def _g_of(profile: ArithProfile, n: int):
    return profile.g_exact(n) if n <= EXACT_LIMIT else profile.g(n)


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
        coeffs = profile.mu_values[:n].tolist()
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


def riemann_sum_via_make(a, b, n: int) -> BeurlingSum:
    """nblab.transform.riemann_sum_T from its formula through BeurlingSum.make."""
    a, b = Fraction(a), Fraction(b)
    h = (b - a) / n
    return BeurlingSum.make([(h / (a + h * k), a + h * k) for k in range(1, n + 1)])


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
    A priority queue merges the per-term breakpoint streams.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError(f"cutoff must lie in (0, 1), got {eps}")
    if f.terms and eps >= f.min_theta:
        raise ValueError(f"cutoff {eps} must be below min theta {f.min_theta}")
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


def lp_power_mpmath(f, generator: Generator | None, p: float, eps, dps: int = 30) -> float:
    """integral_eps^1 |f - generator|^p dx by mpmath at dps digits, refined
    until mpmath.quad's error estimate is _MPMATH_REL of it.

    f is a BeurlingSum, or has phi_terms and inv_coeff (Gn, TIndicator):
    f(x) = inv_coeff/x + sum w Phi(theta/x), Phi(y) = floor(y) log y
    - log floor(y)!.  Between consecutive breakpoints theta/j the difference
    is A/x + B + C log x with A = inv_coeff + sum c theta, and B and C come
    from the floors at the segment's exact rational midpoint, so a node that
    the rounding of a segment's end puts just outside it stays on its
    formula.  Splitting each segment at x = A/C and at the roots leaves
    |.|^p analytic on every subinterval, where tanh-sinh converges.
    """
    rho_terms = [(Fraction(c), t) for c, t in getattr(f, "terms", ())]
    phi_terms = list(getattr(f, "phi_terms", ()))
    inv = Fraction(getattr(f, "inv_coeff", 0))
    kind = None if generator is None else generator.kind
    with mpmath.workdps(dps):
        def mpq(q):
            return mpmath.mpf(q.numerator) / q.denominator

        eps = Fraction(eps)
        cuts = {eps, Fraction(1)}
        for _, t in rho_terms + phi_terms:
            cuts.update(t / j for j in range(1, math.floor(t / eps) + 1)
                        if eps < t / j < 1)
        cuts = sorted(cuts)
        a = mpq(inv + sum((c * t for c, t in rho_terms), start=Fraction(0)))
        intervals = []
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            b = Fraction(kind is GeneratorKind.NEG_CHI) - sum(
                (c * math.floor(t / mid) for c, t in rho_terms), start=Fraction(0))
            floors = [(w, t, math.floor(t / mid)) for w, t in phi_terms]
            c = -(kind is GeneratorKind.LAMBDA) - sum(w * m for w, _, m in floors)
            b = mpq(b) + mpmath.fsum(w * (m * mpmath.log(mpq(t)) - mpmath.loggamma(m + 1))
                                     for w, t, m in floors if m)

            def diff(x, b=b, c=c):
                return a / x + b + c * mpmath.log(x)

            pts = [mpq(lo), mpq(hi)]
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


def sq_integral_whole_array(pw: PiecewiseHyperbolic) -> tuple[float, float]:
    """nblab.norms._sq_integral as one pass over whole arrays, every term
    evaluated even where c is zero: the blocked closed form must return
    the same two doubles."""
    a, x, b, c = pw.a, pw.edges, pw.b, pw.c
    lo, hi = x[:-1], x[1:]
    d = np.diff(x)
    L = -math.log(x[0])
    err = 24.0 * (a * a / x[0] + np.einsum("i,i,i->", b, b, d))
    if np.any(c):
        err += 24.0 * L * L * np.einsum("i,i,i->", c, c, d)
        for q, r in ((b * c, 4.0 * (L + 1.0)), (c * c, 4.0 * ((L + 1.0) ** 2 + 1.0))):
            jumps = np.diff(q)
            err += r * (abs(q[0]) * x[0] + np.dot(x[1:-1], np.abs(jumps, out=jumps))
                        + 8.0 * _F64_EPS * len(q) * max(q.max(), -q.min()))
    lr = np.log1p(d / lo)
    lx = np.log(x)
    out = a * a * d / (lo * hi)
    out += 2.0 * a * b * lr
    out += a * c * lr * (lx[1:] + lx[:-1])
    out += b * b * d
    out += 2.0 * b * c * np.diff(x * (lx - 1.0))
    out += c * c * np.diff(x * (lx * lx - 2.0 * lx + 2.0))
    power = float(np.sum(out))
    err += (math.log2(len(out)) + 25.0) * 0.5 * np.sum(np.abs(out, out=out))
    return power, float(_F64_EPS * err)


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


def whole_array_lanes(mu: np.ndarray, exact_limit: int) -> dict:
    """The profile lanes of mu(1..n), each from one pass over the whole range:
    float64 g, gamma and H_2 from one long double cumsum each, and exact g,
    gamma up to exact_limit from Fraction sums."""
    n = len(mu)
    mertens = np.cumsum(mu, dtype=np.int64)
    ks = np.arange(1, n + 1, dtype=np.float64)
    g = np.cumsum(mu.astype(np.longdouble) / ks.astype(np.longdouble))
    gamma = np.zeros(n, dtype=np.longdouble)
    h2 = np.zeros(n, dtype=np.longdouble)
    k = ks[:-1].astype(np.longdouble)
    m = mertens[:-1].astype(np.longdouble)
    gamma[1:] = np.cumsum(m / (k * (k + 1.0)))
    h2[1:] = np.cumsum(m * (np.log(k + 1.0) - np.log(k)))
    g_exact, gamma_exact = [], []
    acc_g = acc_gamma = Fraction(0)
    for i in range(exact_limit):
        acc_g += Fraction(int(mu[i]), i + 1)
        g_exact.append(acc_g)
        if i >= 1:
            acc_gamma += Fraction(int(mertens[i - 1]), i * (i + 1))
        gamma_exact.append(acc_gamma)
    return {"g": g.astype(np.float64), "gamma": gamma.astype(np.float64),
            "h2": h2.astype(np.float64), "g_exact": g_exact,
            "gamma_exact": gamma_exact}


def mellin_whole_array(profile: ArithProfile, kernel: str, s: complex,
                       cutoff: int, p: float = 2.0) -> complex:
    """integral_1^T kernel(x) x^(-s-1) dx, as nblab.mellin.mellin_numeric
    computes it but with every term of the sum over n in one array."""
    s = complex(s)
    n = np.arange(1, cutoff, dtype=np.float64)
    logn = np.log(n)
    lognn = np.log(n + 1.0)
    pow_s = np.exp(-s * logn)
    pow_s1 = np.exp(-s * lognn)
    mert = profile.mertens[:cutoff - 1].astype(np.float64)
    if kernel == "M":
        return complex(np.sum(mert * (pow_s - pow_s1)) / s)
    if kernel == "xg":
        g = profile.g_float[:cutoff - 1]
        return complex(np.sum(g * (np.exp((1 - s) * logn) - np.exp((1 - s) * lognn)))
                       / (s - 1))
    hp = profile.hp_values(p, cutoff - 1)
    if abs(p - 2.0) < 1e-15:
        base = (hp - mert * logn) * (pow_s - pow_s1) / s
        f_hi = -pow_s1 * (lognn / s + 1.0 / s**2)
        f_lo = -pow_s * (logn / s + 1.0 / s**2)
        return complex(np.sum(base + mert * (f_hi - f_lo)))
    e = 1.0 - 2.0 / p
    base = (hp - mert * np.exp(e * logn) / e) * (pow_s - pow_s1) / s
    shifted = (np.exp((e - s) * logn) - np.exp((e - s) * lognn)) / (s - e)
    return complex(np.sum(base + mert / e * shifted))
