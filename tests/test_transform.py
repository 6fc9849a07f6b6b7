import math
from fractions import Fraction

import mpmath
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab.arith import build_profile
from nblab.sieve import sieve_mobius
from nblab.special import EULER_GAMMA
from nblab.transform import Gn, TIndicator, mobius_log_identity
from oracles import (StepWeight, apply_T, floor_log_integral, gn_phi_terms,
                     rho_tail_ratio_bound, riemann_sum_via_make)


@pytest.mark.parametrize("y", [0.3, 1.0, 1.5, 2.0, 3.7, 10.25])
def test_floor_log_integral_vs_quadrature(y):
    oracle = si.quad(lambda u: math.floor(u) / u, 1.0, max(y, 1.0),
                     points=[k for k in range(1, int(y) + 1)])[0] if y > 1 else 0.0
    assert math.isclose(floor_log_integral(y), oracle, rel_tol=1e-11,
                        abs_tol=1e-11)


def test_floor_log_integral_closed_form():
    assert floor_log_integral(Fraction(7, 2)) == 3 * math.log(3.5) - math.lgamma(4)
    assert floor_log_integral(Fraction(1)) == 0.0
    assert floor_log_integral(0.25) == 0.0


def test_step_weight_validation(profile):
    with pytest.raises(ValueError):
        StepWeight((Fraction(1), Fraction(1, 2)), (1, 2))
    with pytest.raises(ValueError):
        StepWeight((Fraction(1, 2), Fraction(1)), (1,))
    w = StepWeight.mertens_weight(5, profile)
    assert w.cuts == tuple(Fraction(1, k) for k in range(1, 6))
    assert w.weights == tuple(profile.M(k) for k in range(1, 5))


def test_apply_t_against_quadrature(profile):
    w = StepWeight.mertens_weight(6, profile)

    def integrand(theta, x):
        k = math.floor(1.0 / theta)
        m = profile.M(min(k, 5))
        frac = theta / x - math.floor(theta / x)
        return m * frac / theta

    for x in (0.37, 0.61, 1.3):
        cuts = [float(c) for c in reversed(w.cuts)]
        oracle = sum(si.quad(integrand, lo, hi, args=(x,), limit=200)[0]
                     for lo, hi in zip(cuts, cuts[1:]))
        assert math.isclose(apply_T(w, x), oracle, rel_tol=1e-8, abs_tol=1e-8)


def test_gn_fast_equals_slow(profile):
    for n in (1, 2, 17, 120):
        g = Gn(n, profile)
        w = StepWeight.mertens_weight(n, profile)
        for x in (0.004, 0.03, 0.41, 0.77, 1.0, 2.5):
            assert math.isclose(g(x), apply_T(w, x), rel_tol=1e-10,
                                abs_tol=1e-11)


def test_gn_exact_rational_path(profile):
    g = Gn(30, profile)
    for x in (Fraction(1, 7), Fraction(2, 9), Fraction(5, 4)):
        assert math.isclose(g(x), g(float(x)), rel_tol=1e-12, abs_tol=1e-12)


def test_gn_beyond_one_is_hyperbolic(profile):
    g = Gn(75, profile)
    for x in (1.0, 1.5, 8.0):
        assert math.isclose(g(x), profile.gamma(75) / x, rel_tol=1e-14)


def test_gn_pointwise_tends_to_log(profile):
    # G_n(1/2) approaches log(1/2) with shrinking error
    errs = [abs(Gn(n, profile)(0.5) - math.log(0.5)) for n in (10, 100, 1000)]
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("n", [2, 10, 1000])
def test_gn_sup_bound_is_an_upper_bound(profile, n):
    # at or above sum |M(k)| log((k+1)/k) at 30 digits, and within its own
    # rounding allowance of it
    with mpmath.workdps(30):
        exact = mpmath.fsum(abs(profile.M(k)) * mpmath.log(mpmath.mpf(k + 1) / k)
                            for k in range(1, n))
        bound = Gn(n, profile).sup_bound
        assert exact <= bound <= exact * (1 + (n + 6) * 2.0 ** -52)


def test_gn_validation(profile):
    with pytest.raises(ValueError):
        Gn(0, profile)
    with pytest.raises(ValueError):
        Gn(profile.limit + 1, profile)
    with pytest.raises(ValueError):
        Gn(5, profile)(0.0)


def test_tindicator_against_quadrature():
    ti = TIndicator(Fraction(1, 3), Fraction(4, 5))

    def oracle(x):
        return si.quad(lambda th: (th / x - math.floor(th / x)) / th,
                       1 / 3, 4 / 5, limit=400)[0]

    for x in (0.09, 0.35, 0.71, 2.0):
        assert math.isclose(ti(x), oracle(x), rel_tol=1e-8, abs_tol=1e-8)


def test_tindicator_on_its_breakpoints():
    # rational x = b/j and a/j put theta/x exactly on an integer, where the
    # floor must come out exact; the oracle integrates the indicator piecewise
    for a, b in ((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 7), Fraction(5, 6))):
        ti = TIndicator(a, b)
        w = StepWeight((Fraction(1), b, a), (0, 1))
        for x in [b / j for j in range(1, 8)] + [a / j for j in range(1, 8)]:
            assert math.isclose(ti(x), apply_T(w, x), rel_tol=1e-12, abs_tol=1e-14)
            assert math.isclose(ti(float(x)), apply_T(w, x), rel_tol=1e-12, abs_tol=1e-14)


def test_tindicator_validation():
    with pytest.raises(ValueError):
        TIndicator(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        TIndicator(0, 1)


def test_tindicator_sup_bound_rounds_up():
    # (b - a)/a = 4/3 rounds to nearest below itself
    assert Fraction(TIndicator(Fraction(3, 7), 1).sup_bound) >= Fraction(4, 3)
    # an exact quotient stays as it is
    assert TIndicator(Fraction(1, 4), Fraction(1, 2)).sup_bound == 1.0


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000),
       st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000))
@settings(max_examples=200, deadline=None)
def test_tindicator_sup_bound_is_the_least_double_above(a, b):
    a, b = sorted((a, b))
    if a == b:
        return
    sup = TIndicator(a, b).sup_bound
    assert Fraction(sup) >= (b - a) / a > Fraction(math.nextafter(sup, 0.0))


def test_riemann_sum_terms():
    s = riemann_sum_via_make(Fraction(1, 2), 1, 4)
    assert [t for _, t in s.terms] == [Fraction(1), Fraction(7, 8),
                                       Fraction(3, 4), Fraction(5, 8)]
    assert s.tail_coeff == Fraction(1, 2)


def test_gn_phi_terms_match_oracle(profile):
    for n in [*range(1, 201), *range(1995, 2001)]:
        got = Gn(n, profile).phi_terms
        assert got == gn_phi_terms(n, profile)
        assert all(type(w) is int and type(t) is Fraction for w, t in got)


def test_mobius_log_identity_samples(profile):
    lhs, rhs, diff, _ = mobius_log_identity(Fraction(1), profile)
    assert lhs == 0.0 and abs(rhs) <= 1e-14
    lhs, rhs, diff, _ = mobius_log_identity(Fraction(2), profile)
    assert math.isclose(lhs, math.log(2), rel_tol=1e-15)
    assert diff <= 1e-10
    # 360 and 720 put x/k on an integer for many k
    for x in (0.5, 3.75, 17.2, 999.5, 1000, 360, 720, 720.0, Fraction(1441, 2)):
        _, _, diff, bound = mobius_log_identity(x, profile)
        assert diff <= 1e-10
        assert diff <= bound


@pytest.fixture(scope="module")
def profile_20k():
    return build_profile(sieve_mobius(20_000))


@pytest.mark.parametrize("x", [Fraction(20_000), Fraction(37_501, 3), 7777.25])
def test_mobius_log_bound_covers_the_rounding(profile_20k, x):
    # both sides to 40 digits from the same M: the computed sides together
    # lie within bound of them
    lhs, rhs, diff, bound = mobius_log_identity(x, profile_20k)
    xq = Fraction(x)
    kmax = math.floor(xq)
    with mpmath.workdps(40):
        xm = mpmath.mpf(xq.numerator) / xq.denominator
        log_fact = [mpmath.mpf(0)]
        for m in range(1, kmax + 1):
            log_fact.append(log_fact[-1] + mpmath.log(m))
        phi = [m * mpmath.log(xm / k) - log_fact[m] if m else mpmath.mpf(0)
               for k in range(1, kmax + 2) for m in [math.floor(xq / k)]]
        rhs_mp = mpmath.fsum(profile_20k.M(k) * (phi[k - 1] - phi[k])
                             for k in range(1, kmax + 1))
        lhs_mp = mpmath.log(xm)
        assert abs(lhs_mp - rhs_mp) < mpmath.mpf(10) ** -30
        gap = abs(lhs - lhs_mp) + abs(rhs - rhs_mp)
    assert diff <= gap * (1 + 2 ** -52) and gap <= bound


def test_mobius_log_identity_validation(profile):
    with pytest.raises(ValueError):
        mobius_log_identity(0, profile)
    with pytest.raises(ValueError):
        mobius_log_identity(profile.limit + 10, profile)


@given(st.floats(min_value=10.5, max_value=5000.0),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_rho_tail_ratio_bound_holds(theta, n):
    if theta <= n:
        return
    r = rho_tail_ratio_bound(theta, n)
    assert r.satisfied
    assert r.value <= r.bound


def test_rho_tail_ratio_value_vs_quadrature():
    theta, n = 37.5, 4
    r = rho_tail_ratio_bound(theta, n)
    parts = [si.quad(lambda x: (x / theta - math.floor(x / theta)) / x ** 2,
                     a, b, limit=400)[0]
             for a, b in ((n, theta), (theta, 40 * theta))]
    # remaining tail beyond 40 theta is below (1/(40 theta)) in absolute value
    assert abs(r.value - sum(parts)) <= 1.0 / (40 * theta) + 1e-8


def test_euler_gamma_constant():
    assert math.isclose(EULER_GAMMA, 0.57721566490153286, rel_tol=1e-15)
