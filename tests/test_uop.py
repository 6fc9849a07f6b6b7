import math
from fractions import Fraction

import mpmath
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab import uop
from nblab.arith import EXACT_LIMIT, build_profile
from nblab.beurling import BeurlingSum, make_family
from nblab.sieve import sieve_mobius
from nblab.uop import (BudgetError, apply_u, gn_chain_lower, head_check,
                       head_constant, isometry_check, rho_tail_integral, u_l2_norm,
                       usn_lower_integral, ut_direct, ut_head)

from oracles import dilate, u_chi


def test_single_term_image():
    f = BeurlingSum.make([(Fraction(1), Fraction(1))])
    u = apply_u(f)
    # the image of the basic dilation is rho(x)/x
    for x in (0.3, 1.4, 2.75, 7.9):
        assert math.isclose(u(x), (x - math.floor(x)) / x, rel_tol=1e-14)
    assert head_constant(f) == 1


def test_head_constants_exact(profile):
    for n in (10, 100, 1000):
        assert head_constant(make_family("sn", n, profile)) == profile.M(n)
        assert head_constant(make_family("bn", n, profile)) == \
            -n * profile.gamma_exact(n)
        assert head_constant(make_family("fn", n, profile)) == profile.M(n) - 1
        assert head_constant(make_family("vn", n, profile)) == \
            profile.M(n) - profile.g_exact(n)
    assert head_constant(make_family("bn", 1, profile)) == 0


@pytest.fixture(scope="module")
def past_exact_profile():
    return build_profile(sieve_mobius(EXACT_LIMIT + 50))


def test_head_check_exact_then_within_tolerance(past_exact_profile):
    for family in ("sn", "vn", "bn", "fn"):
        for n in (1, 10, EXACT_LIMIT):
            expected, actual, ok = head_check(family, n, past_exact_profile)
            assert isinstance(expected, Fraction) and ok and expected == actual
        expected, actual, ok = head_check(family, EXACT_LIMIT + 50, past_exact_profile)
        assert ok and math.isclose(float(expected), float(actual),
                                   rel_tol=1e-9, abs_tol=1e-12)
    # past the limit vn's head is M(n) - g(n) on both sides, g(n) the exact
    # value of the float lane
    expected, actual, ok = head_check("vn", EXACT_LIMIT + 50, past_exact_profile)
    assert ok and expected == actual


def test_head_check_gn_and_rn(profile):
    for n in (1, 10, 1000):
        expected, actual, ok = head_check("gn", n, profile)
        assert ok and expected == ut_head(n, profile)
        assert actual == ut_direct(n, profile, 1.0 / (2 * n))
    # rn has no closed head: measured, and reported as passing
    expected, actual, ok = head_check("rn", 10, profile)
    assert ok and expected == actual == head_constant(make_family("rn", 10, profile))


def test_head_check_fails_on_a_wrong_head(profile, monkeypatch):
    monkeypatch.setattr(uop, "head_constant", lambda f: Fraction(10**6))
    assert not any(head_check(family, 10, profile)[2]
                   for family in ("sn", "vn", "bn", "fn"))
    assert head_check("rn", 10, profile)[2]


def test_head_links_families(profile):
    for n in (7, 53, 400):
        s = head_constant(make_family("sn", n, profile))
        v = head_constant(make_family("vn", n, profile))
        b = head_constant(make_family("bn", n, profile))
        assert s - v == profile.g_exact(n)
        assert s - n * profile.g_exact(n) == b


def test_usum_constant_below_min_theta(profile):
    f = make_family("sn", 12, profile)
    u = apply_u(f)
    for x in (Fraction(1, 13), Fraction(1, 50), Fraction(1, 999)):
        assert u(x) == head_constant(f)


def test_envelope_bound(profile):
    u = apply_u(make_family("vn", 9, profile))
    env = u.envelope
    for x in (0.05, 0.4, 1.7, 23.0):
        assert abs(u(x)) <= env / x + 1e-12


@given(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
       st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
@settings(max_examples=40, deadline=None)
def test_commutes_with_dilation(a, x):
    f = BeurlingSum.make([(Fraction(2), Fraction(1)),
                          (Fraction(-1), Fraction(1, 2)),
                          (Fraction(1, 3), Fraction(2, 3))])
    # on the image side K_a maps theta -> theta/a and d -> d/a
    assert apply_u(dilate(f, a)).terms == \
        tuple((d / a, t / a) for d, t in apply_u(f).terms)
    assert apply_u(dilate(f, a))(x) == apply_u(f)(Fraction(a) * x) * 1


def test_u_l2_norm_oracle():
    # || rho(x)/x ||_2 over (0, X] by direct per-interval integration
    u = apply_u(BeurlingSum.make([(Fraction(1), Fraction(1))]))
    x_max = 200.0
    rep = u_l2_norm(u, x_max)
    oracle = 1.0  # on (0, 1) rho(x) = x so the integrand is exactly 1
    for j in range(1, 200):
        oracle += si.quad(lambda x: ((x - j) / x) ** 2, j, j + 1)[0]
    assert math.isclose(rep.power_value, oracle, rel_tol=1e-9)
    # the near-zero bound 1 * (1/x_max) is rounded up by its own step
    assert 1.0 / x_max <= rep.tail_high <= (1.0 / x_max) * (1.0 + 8 * 2.0 ** -53)


def test_u_l2_budget():
    u = apply_u(BeurlingSum.make([(Fraction(1), Fraction(1, 1000))]))
    with pytest.raises(BudgetError):
        u_l2_norm(u, 1e6)


def _lattice_quad_power(f, x_max):
    """integral_0^x_max |Uf|^2 by scipy quad between consecutive lattice
    points j theta_k, where Uf is smooth."""
    u = apply_u(f)
    cuts = {0.0, x_max}
    for _, t in f.terms:
        cuts.update(float(j * t) for j in range(1, int(x_max / t) + 1))
    cuts = sorted(c for c in cuts if c <= x_max)
    return math.fsum(si.quad(lambda x: u(x) ** 2, lo, hi, epsabs=0.0,
                             epsrel=1e-13)[0]
                     for lo, hi in zip(cuts, cuts[1:]))


def test_u_l2_norm_matches_quadrature(profile):
    mixed = BeurlingSum.make([(Fraction(2), Fraction(1)),
                              (Fraction(-1), Fraction(1, 2)),
                              (Fraction(1, 3), Fraction(2, 3))])
    for f in (make_family("vn", 3, profile), make_family("bn", 5, profile), mixed):
        rep = u_l2_norm(apply_u(f), 50.0)
        assert math.isclose(rep.power_value, _lattice_quad_power(f, 50.0),
                            rel_tol=1e-12)


def test_u_l2_norm_rejects_cutoff_below_theta():
    u = apply_u(BeurlingSum.make([(Fraction(1), Fraction(1)),
                                  (Fraction(-1), Fraction(1, 3))]))
    for x_max in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(ValueError, match="largest theta"):
            u_l2_norm(u, x_max)


def test_isometry_spot_checks(profile):
    for fam, n in (("sn", 1), ("sn", 2), ("sn", 3), ("vn", 3), ("bn", 5)):
        rep = isometry_check(make_family(fam, n, profile), x_max=1e4)
        assert rep.satisfied
        assert rep.tolerance <= 1e-3
        assert rep.discrepancy <= rep.tolerance


def test_isometry_zero_sum(profile):
    rep = isometry_check(make_family("bn", 1, profile))
    assert rep.source.value == 0.0
    assert rep.image.value == 0.0
    assert rep.satisfied


def test_u_chi_values():
    assert math.isclose(float(u_chi(0.25)), 4.0 / math.pi, rel_tol=1e-12)
    assert float(u_chi(0.0)) == 2.0
    assert abs(float(u_chi(0.5))) < 1e-15


def test_rho_tail_integral():
    assert math.isclose(rho_tail_integral(0.5), math.log(0.5), rel_tol=1e-14)
    for y in (1.5, 3.0, 7.25):
        oracle = si.quad(lambda u: (u - math.floor(u)) / u ** 2, 1.0, y,
                         points=list(range(1, int(y) + 1)))[0]
        assert math.isclose(rho_tail_integral(y), oracle, rel_tol=1e-10)


def test_ut_head_matches_direct(profile):
    assert ut_head(1, profile) == 0.0
    for n in (10, 100, 500):
        h = ut_head(n, profile)
        assert math.isclose(h, ut_direct(n, profile, 1.0 / (2 * n)),
                            rel_tol=1e-12, abs_tol=1e-12)
        # any sample point below 1/n gives the same constant
        assert math.isclose(h, ut_direct(n, profile, 1.0 / (3 * n + 1)),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_ut_direct_general_point(profile):
    # above 1/n the direct evaluation must match the transform of G_n:
    # (1/x) integral_{1/n}^1 M(1/theta) rho(x/theta) dtheta by quadrature
    n = 8
    x = 0.21

    def integrand(theta):
        k = min(math.floor(1.0 / theta), n - 1)
        r = x / theta - math.floor(x / theta)
        return profile.M(k) * r

    jumps = sorted(p for p in ({1.0 / k for k in range(2, n)} |
                               {x / m for m in range(1, int(n * x) + 1)})
                   if 1.0 / n < p < 1.0)
    oracle = si.quad(integrand, 1.0 / n, 1.0, limit=800,
                     points=jumps or None)[0] / x
    # the integrand is discontinuous at every floor jump, so the adaptive
    # oracle is only good to ~1e-7 here
    assert math.isclose(ut_direct(n, profile, x), oracle, rel_tol=1e-6)


def test_usn_lower_integral(profile):
    for n in (10, 100):
        val, err = usn_lower_integral(n, profile)
        m = profile.M(n)
        oracle = si.quad(lambda x: (math.sin(2 * math.pi * x) / (math.pi * x)
                                    + m) ** 2, 1e-12, 1.0 / n)[0]
        assert math.isclose(val, oracle, rel_tol=1e-9)
        assert err < 1e-12


def test_usn_lower_integral_closed_form():
    profile = build_profile(sieve_mobius(10 ** 4))
    for n in (1, 1000, 10 ** 4):
        val, err = usn_lower_integral(n, profile)
        m = profile.M(n)
        with mpmath.workdps(30):
            oracle = mpmath.quad(lambda x: (mpmath.sin(2 * mpmath.pi * x)
                                            / (mpmath.pi * x) + m) ** 2,
                                 [0, mpmath.mpf(1) / n])
        assert math.isclose(val, float(oracle), rel_tol=1e-13)
        assert 0.0 < err < 1e-13 * val


def test_gn_chain_lower(profile):
    for n in (10, 100):
        assert math.isclose(gn_chain_lower(n, profile),
                            abs(profile.hp(n)) / math.sqrt(n), rel_tol=1e-14)
