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
                       head_constant, isometry_check, u_l2_norm,
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


def test_ut_head_matches_direct(profile):
    assert ut_head(1, profile) == 0.0
    for n in (10, 100, 500):
        h = ut_head(n, profile)
        assert math.isclose(h, ut_direct(n, profile, 1.0 / (2 * n)),
                            rel_tol=1e-12, abs_tol=1e-12)
        # any sample point below 1/n gives the same constant
        assert math.isclose(h, ut_direct(n, profile, 1.0 / (3 * n + 1)),
                            rel_tol=1e-12, abs_tol=1e-12)


def _ut_mpmath(n, profile, x):
    """(1/x) integral_(1/n)^1 M(floor(1/theta)) rho(x/theta) dtheta at 30
    digits, for the float x taken exactly: between the jumps 1/k of
    floor(1/theta) and x/m of floor(x/theta) the integrand is
    M(k) (1/theta - m/x), whose integral is closed."""
    fx = Fraction(x)
    cuts = sorted({Fraction(1, k) for k in range(1, n + 1)}
                  | {fx / m for m in range(1, math.floor(fx * n) + 1)})
    cuts = [c for c in cuts if Fraction(1, n) <= c <= 1]
    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for t0, t1 in zip(cuts, cuts[1:]):
            mid = (t0 + t1) / 2
            k, m = math.floor(1 / mid), math.floor(fx / mid)
            total += profile.M(k) * (mpmath.log(mp(t1) / mp(t0)) - m * mp(t1 - t0) / mp(fx))
        return total


def _ut_points(n):
    """x = 1/n, 1/(2n), 0.21, 0.5, 1 and each side of the floor jumps 1/2
    and 2/3 (b = x(k+1) reaches 1 at x = 1/2 with k = 1, 2 at x = 2/3 with
    k = 2)."""
    near = [math.nextafter(j, side) for j in (0.5, 2.0 / 3.0) for side in (0.0, 1.0)]
    return [1.0 / n, 1.0 / (2 * n), 0.21, 0.5, 1.0] + near


def test_ut_direct_general_point(profile):
    # the direct evaluation is the transform of G_n, integrated piece by
    # piece in theta at 30 digits; the largest error measured is 2.4e-14
    for n in (2, 8, 57, 300):
        for x in _ut_points(n):
            assert abs(ut_direct(n, profile, x) - _ut_mpmath(n, profile, x)) <= 1e-12, (n, x)


def test_ut_direct_is_chunk_independent(profile, monkeypatch):
    # one fsum over the terms of every chunk: the same bits at any CHUNK
    runs = []
    for chunk in (7, 128, 2 ** 16):
        monkeypatch.setattr(uop, "CHUNK", chunk)
        runs.append([ut_direct(n, profile, x) for n in (1, 2, 8, 129, 2000)
                     for x in _ut_points(n)])
    assert runs[0] == runs[1] == runs[2]


def test_ut_direct_rejects_outside_domain(profile):
    for n in (0, -3, profile.limit + 1):
        with pytest.raises(ValueError, match="outside profile range"):
            ut_direct(n, profile, 0.1)
    for x in (0.0, -0.5, math.nextafter(1.0, 2.0), 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="0 < x <= 1"):
            ut_direct(10, profile, x)


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
