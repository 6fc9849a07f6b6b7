"""Special functions that bound their own error.

Each function returns its value with an explicit bound: a truncation
remainder that is proved (a tail enclosure or a first omitted term), plus
the rounding of its float64 arithmetic under this model: + - * / and int /
int are correctly rounded, float(Fraction) rounds to nearest, and math.exp,
math.log, math.log1p, pow and np.log are within 1 ulp (glibc and NumPy
hold them to that).  u = 2^-53 is the unit roundoff.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.5772156649015328606

_U = 2.0 ** -53
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2, B_4, ..., B_18
_BERNOULLI = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
              Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
              Fraction(-3617, 510), Fraction(43867, 798))
# Stirling's series log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
# + sum_k B_2k / (2k (2k-1) z^(2k-1)); for real z > 0 its remainder is below
# the first omitted term, c_7 / z^13 = 1.4e-18 at z >= 16
_STIRLING = tuple(float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(_BERNOULLI[:6], 1))
_STIRLING_MIN = 16
_STIRLING_REM = float(_BERNOULLI[6] / (14 * 13)) / _STIRLING_MIN ** 13


def _up(x: float) -> float:
    """The float above x: an upper bound on the exact value of x's last
    operation, which rounded it by at most half an ulp."""
    return math.nextafter(x, math.inf)


def float_up(*parts) -> float:
    """The least double at or above the exact sum of parts (ints, Fractions, floats)."""
    f = float(x := sum(map(Fraction, parts)))
    return f if Fraction(f) >= x else _up(f)


def _stirling(z):
    """Stirling's series for log Gamma(z), z >= 16 (a float or an array),
    less its remainder, which is below _STIRLING_REM."""
    w = 1.0 / (z * z)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * w + c
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + series / z


# log m! for m < _STIRLING_MIN, each within 1 ulp (15! < 2^53 is an exact float)
_LOG_FACTORIAL = np.array([math.log(math.factorial(m)) for m in range(_STIRLING_MIN)])


def log_factorial(m) -> np.ndarray:
    """log m! for an array of integer-valued floats 0 <= m <= 2^52.

    m < 16 reads a table; larger m takes six terms of Stirling's series at
    z = m + 1 >= 17, whose remainder is below 1e-18.  Every entry is
    within 2^-50 max(1, log m!) of log m!: the table is within 1 ulp, and
    in the series (z - 1/2) log z - z, whose rounding dominates, holds
    1 - 1/log z >= 0.64 of (z - 1/2) log z.
    """
    m = np.asarray(m, dtype=np.float64)
    table = _LOG_FACTORIAL[np.minimum(m, _STIRLING_MIN - 1).astype(np.intp)]
    return np.where(m < _STIRLING_MIN, table,
                    _stirling(np.maximum(m, _STIRLING_MIN) + 1.0))


def _lgamma(a: float) -> tuple[float, float]:
    """(log Gamma(a), bound) for a >= 1: Stirling's series at z = a + n >= 16,
    less log(a (a+1) ... (a+n-1)).

    The bound is the series remainder plus 8u (z (log z + 1) + 1 + n (log z
    + 1)): the series' rounding (4u (z log z + z + 1)), the rounding of
    z = a + n (moves log Gamma by log(z) u z / 2), and the product's 2n
    roundings and its logarithm (n u + 2u n log z).
    """
    n = max(0, _STIRLING_MIN - math.floor(a))
    z = a + n
    value = float(_stirling(z))
    if n:
        value -= math.log(math.prod(a + j for j in range(n)))
    lz = math.log(z) + 1.0
    return value, _STIRLING_REM + 8.0 * _U * (z * lz + 1.0 + n * lz)


def _integers(a: float, x: float) -> tuple[int, int, int]:
    """(D, A, X) with a = A/D and x = X/D exactly: floats are dyadic, so D
    is the larger of their denominators."""
    fa, fx = Fraction(a), Fraction(x)
    d = max(fa.denominator, fx.denominator)
    return d, int(fa * d), int(fx * d)


def _legendre_t1(a: float, x: float) -> tuple[int, int]:
    """A lower bound P/Q on t_1 in Legendre's continued fraction

        Gamma(a, x) = x^a e^-x / t_1,   t_k = x + (k - a) / (1 + k / t_(k+1)),

    for x > a + 1, within 2^-62 of it.  For k > a every positive t_(k+1)
    puts t_k in (x, x + k - a); t_k is monotone in t_(k+1) (rising for
    k > a, falling for k < a) and stays positive, since x > a - k.  So
    both ends of (x, x + K - a) at a depth K > a, carried back to k = 1 in
    exact rationals of the floats a and x, enclose t_1; K doubles until
    they agree to 2^-62 (K = floor(a) + 8 has sufficed for a <= 700).
    """
    d, big_a, big_x = _integers(a, x)
    depth = math.floor(a) + 8
    while True:
        lo, hi = (big_x, d), (big_x + depth * d - big_a, d)
        for k in range(depth - 1, 0, -1):
            c = k * d - big_a
            # t -> x + (k - a) t / (t + k) on t = P / Q
            (p_lo, q_lo), (p_hi, q_hi) = lo, hi
            s_lo, s_hi = p_lo + k * q_lo, p_hi + k * q_hi
            lo, hi = (big_x * s_lo + c * p_lo, d * s_lo), (big_x * s_hi + c * p_hi, d * s_hi)
            if c < 0:
                lo, hi = hi, lo
        if (hi[0] * lo[1] - lo[0] * hi[1]) << 62 <= lo[0] * hi[1]:
            return lo
        depth *= 2


def _lower_series(a: float, x: float) -> float:
    """A lower bound on S = sum_(n >= 0) x^n / (a (a+1) ... (a+n)), within
    2^-64 of it and rounded to nearest, for x <= a + 1.

    With a = A/D and x = X/D, S = D num / den after N terms, where
    den = prod_(j <= N) (A + jD) and num gathers X^n den / (its first n+1
    factors), all integers.  The partial sum stops when the geometric bound
    on the rest, term (a + N + 1) / (a + N + 1 - x) (the term ratios
    x / (a + n + 1) < 1 fall), is below 2^-64 of it.
    """
    d, big_a, big_x = _integers(a, x)
    num, den, power, n = 1, big_a, 1, 0
    while True:
        n += 1
        factor = big_a + n * d
        power *= big_x
        num, den = num * factor + power, den * factor
        nxt = factor + d
        if (power * nxt) << 64 < (nxt - big_x) * num:
            return d * num / den


def log_gamma_upper(a: float, x: float) -> float:
    """An upper bound on log Gamma(a, x), the upper incomplete gamma function
    integral_x^inf t^(a-1) e^-t dt, for a >= 1 and x > 0.

    x > a + 1: Legendre's continued fraction, Gamma(a, x) = x^a e^-x / t_1,
    with t_1 enclosed from below by _legendre_t1.  Otherwise Gamma(a) - the
    lower gamma function: Gamma(a) (1 - P) with P = x^a e^-x S / Gamma(a),
    S from below by _lower_series and Gamma(a) from above by _lgamma.
    (P <= P(1, 2) = 0.87 there, so 1 - P loses little.)  Rounding: a log x
    - x is within 4u (a |log x| + x), each further logarithm within 1 ulp
    of its result plus the relative rounding of its argument; every such
    term is added to the bound, so it exceeds log Gamma(a, x) by less than
    2^-44 (a |log x| + x + z log z), z = max(a, 16).
    """
    if not (a >= 1.0 and 0.0 < x < math.inf):
        raise ValueError(f"need a >= 1 and 0 < x < inf, got a={a}, x={x}")
    lead = a * math.log(x) - x
    lead_err = 4.0 * _U * (a * abs(math.log(x)) + x)
    if x > a + 1.0:
        num, den = _legendre_t1(a, x)
        log_t = math.log(num / den)
        # lead - log_t, with the rounding of num / den (u/2), of log_t and of the difference
        value = lead - log_t
        return _up(value + lead_err + 2.0 * _U * (abs(log_t) + 1.0) + _U * abs(value))
    lg, lg_err = _lgamma(a)
    log_s = math.log(_lower_series(a, x))
    log_p = lead + log_s - lg
    p_low = math.nextafter(math.exp(log_p - lead_err - lg_err
                                    - 2.0 * _U * (abs(log_s) + 1.0)
                                    - 4.0 * _U * (abs(lead) + abs(log_s) + abs(lg))),
                           0.0)
    tail = math.log1p(-p_low)
    value = lg + tail
    return _up(value + lg_err + 2.0 * _U * abs(tail) + _U * abs(value))


def gamma_upper(a: float, x: float) -> float:
    """An upper bound on Gamma(a, x) (see log_gamma_upper), exp of that bound
    rounded up; raises OverflowError when it passes the float range."""
    return math.nextafter(math.exp(log_gamma_upper(a, x)), math.inf)


def si(z: float) -> tuple[float, float]:
    """(Si(z), bound), Si(z) = integral_0^z sin(t)/t dt, for 0 < z <= 4 pi.

    The Taylor series sum_k (-1)^k z^(2k+1) / ((2k+1) (2k+1)!) is summed in
    exact rationals of the float z until, past its largest terms, the next
    term is below 2^-80 of the partial sum; from there the terms alternate
    and fall, so the remainder is below that term.  The sum is rounded
    once: bound is the rounding error plus the next term, rounded up, so
    |value - Si(z)| <= bound <= ulp(value)/2 + 2^-79 |value|.
    """
    if not 0.0 < z <= 4.0 * math.pi:
        raise ValueError(f"need 0 < z <= 4 pi, got {z}")
    zf = Fraction(z)
    z2 = zf * zf
    power, total, k = zf, Fraction(0), 0         # power = z^(2k+1) / (2k+1)!
    while True:
        total += power / (2 * k + 1) if k % 2 == 0 else -power / (2 * k + 1)
        k += 1
        power = power * z2 / ((2 * k) * (2 * k + 1))
        nxt = power / (2 * k + 1)
        # the term ratio z^2 (2j+1) / ((2j+2) (2j+3)^2) is below 1 for j >= k
        if (2 * k + 2) * (2 * k + 3) > z2 and nxt < abs(total) / 2 ** 80:
            value = float(total)
            return value, _up(float(abs(total - Fraction(value)) + nxt))


_ZETA_N = 12


def zeta(s: float) -> tuple[float, float]:
    """(zeta(s), bound) for real s > 1, by Euler-Maclaurin at N = 12:

        zeta(s) = sum_(n<N) n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_(k=1..8) B_2k/(2k)! s (s+1) ... (s+2k-2) N^(1-s-2k) + R,

    where for real s the remainder |R| is below the first omitted term
    (k = 9); math.fsum adds the terms.  Each n^-s is within 4u.  N^(1-s)
    is within r = 2u + 1.25u (s - 1) (pow, and 1 - s rounded by u/2 moves it
    by log(12) u (s - 1) / 2); the two terms built on it directly are
    within r + 2u, each Bernoulli term, after at most 2k + 2 more
    roundings of half an ulp and that of B_2k, within r + 32u.  bound is
    those, |R| and the final rounding u |value|, rounded up.
    """
    if not 1.0 < s < math.inf:
        raise ValueError(f"need real s > 1, got {s}")
    main = [n ** -s for n in range(1, _ZETA_N)]
    head = _ZETA_N ** (1.0 - s)
    near = [head / (s - 1.0), 0.5 * head / _ZETA_N]
    # factor_k = s (s+1) ... (s+2k-2) N^(1-s-2k) / (2k)!
    factor = s * head / (2 * _ZETA_N ** 2)
    bern = []
    for k, b in enumerate(_BERNOULLI, 1):
        if k > 1:
            factor *= (s + 2 * k - 3) * (s + 2 * k - 2) / ((2 * k - 1) * (2 * k) * _ZETA_N ** 2)
        bern.append(float(b) * factor)
    rem = abs(bern.pop())
    value = math.fsum(main + near + bern)
    r = 2.0 * _U + 1.25 * _U * (s - 1.0)
    err = (4.0 * _U * math.fsum(main) + (r + 2.0 * _U) * math.fsum(near)
           + (r + 32.0 * _U) * math.fsum(map(abs, bern)) + rem + _U * value)
    return value, _up(err)
