"""Acceptance gate: one test (one pass/fail line under pytest -v) per
criterion, with pinned tolerances.  Criteria that the measured mathematics
contradicts are split: the supportable reading is asserted, the literal
reading is marked xfail(strict=True) with the measured facts in the notes
ledger outside the package.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nblab.arith import build_profile, floor_sum_check
from nblab.beurling import BeurlingSum, LAMBDA, NEG_CHI, make_family
from nblab.mellin import mellin_numeric
from nblab.norms import lp_distance, lp_norm, to_piecewise
from nblab.sieve import sieve_mobius
from nblab.transform import Gn, TIndicator, mobius_log_identity
from nblab.uop import isometry_check, ut_direct, ut_head
from nblab.witnesses import witness_gn, witness_sn_hurdle
from nblab.norms import Difference
from oracles import (convergence_trend, quad_abs_p, recover_coefficients,
                     riemann_sum_via_make as riemann_sum_T, step_values)


@pytest.fixture(scope="module")
def exact_profile():
    # exact rational lanes all the way to 10^4 for the identity suite
    return build_profile(sieve_mobius(10_000))


def test_a01_exact_identity_suite(exact_profile):
    t0 = time.perf_counter()
    p = exact_profile
    assert floor_sum_check(p, 10_000)
    for n in range(1, 10_001):
        assert p.g_exact(n) == Fraction(p.M(n), n) + p.gamma_exact(n)
    acc = Fraction(0)
    for k in range(1, 10_000):
        acc += p.M(k) * (Fraction(1, k) - Fraction(1, k + 1))
        assert acc == p.gamma_exact(k + 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[A1] exact identity suite to 10^4: pass ({elapsed:.2f}s)")


def test_a02_mobius_log_identity(exact_profile):
    t0 = time.perf_counter()
    lhs, rhs, _, _ = mobius_log_identity(Fraction(1), exact_profile)
    assert lhs == 0.0 and abs(rhs) <= 1e-14
    lhs, rhs, diff, _ = mobius_log_identity(Fraction(2), exact_profile)
    assert math.isclose(lhs, math.log(2), rel_tol=1e-15) and diff <= 1e-10
    xs = [Fraction(1), Fraction(2)] + [
        Fraction(1000 * j, 20) + Fraction(1, 3) for j in range(1, 19)]
    assert len(xs) == 20
    for x in xs:
        _, _, diff, _ = mobius_log_identity(x, exact_profile)
        assert diff <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[A2] Moebius-log identity, 20 points: pass ({elapsed:.2f}s)")


def test_a03_family_structure(profile):
    # constant value -1 on the inner interval; the left endpoint itself
    # carries the exact value -1 + n g(n) under rho(integer) = 0
    for n in (10, 100):
        b = make_family("bn", n, profile)
        pts = [Fraction(1, n) + Fraction(j, 20) * (1 - Fraction(1, n))
               for j in range(1, 21)]
        assert len(pts) == 20
        for x in pts:
            assert b(x) == -1
        assert b(Fraction(1, n)) == -1 + n * profile.g_exact(n)
    for fam in ("vn", "bn", "fn", "rn"):
        assert make_family(fam, 300, profile).tail_coeff == 0
    for n in range(1, 1001):
        assert make_family("sn", n, profile)(Fraction(1)) == \
            profile.g_exact(n) - 1
    print("[A3] family structure identities: pass")


def test_a04_coefficient_recovery(profile):
    f = make_family("vn", 500, profile)
    coeffs = recover_coefficients(step_values(f, 500))
    for j in range(2, 501):
        assert coeffs[j - 1] == profile.mu(j)
    assert coeffs[0] == 1 - profile.g_exact(500)
    assert abs(coeffs[0] - profile.mu(1)) == abs(profile.g_exact(500))
    assert abs(coeffs[0] - profile.mu(1)) < Fraction(1, 50)
    print("[A4] coefficient recovery at n=500: pass "
          "(positions 2..500 exact, leading coefficient within |g(500)|)")


@pytest.mark.xfail(strict=True, reason=(
    "the leading recovered coefficient equals 1 - g(n) by construction, "
    "which differs from mu(1) = 1 by exactly |g(500)| ~ 0.0027; only the "
    "limit of the leading coefficient is 1"))
def test_a04_literal_leading_coefficient(profile):
    f = make_family("vn", 500, profile)
    coeffs = recover_coefficients(step_values(f, 500))
    assert coeffs[0] == profile.mu(1)


def test_a05_convergence_trends(profile):
    t0 = time.perf_counter()
    grid = (10, 100, 1000)
    assert convergence_trend("bn", NEG_CHI, 1.0, grid, profile).decreasing(3)
    assert convergence_trend("gn", LAMBDA, 1.0, grid, profile).decreasing(3)
    errs = [abs(Gn(n, profile)(0.5) - math.log(0.5)) for n in grid]
    assert errs[0] > errs[1] > errs[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"[A5] convergence trends (certified, eps=1e-6): pass "
          f"({elapsed:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "the L1 distance of the series-form family is not monotone over "
    "{10, 100, 1000}: certified values 0.0800, 0.0888, 0.0448 track |M(n)|; "
    "only convergence to zero, without a rate, is proven"))
def test_a05_fn_l1_strictly_decreasing(profile):
    t = convergence_trend("fn", NEG_CHI, 1.0, (10, 100, 1000), profile)
    assert t.decreasing(3)


def test_a06_divergence_witnesses(profile):
    for n in (10, 100, 1000):
        rep = witness_sn_hurdle(n, 2.0, profile)
        assert rep.theorem_backed and rep.lhs.lower >= rep.rhs
        rep = witness_gn(n, 2.0, profile)
        assert rep.theorem_backed and rep.lhs.lower >= rep.rhs
        assert math.isclose(rep.rhs,
                            abs(profile.gamma(n)) * math.sqrt(n),
                            rel_tol=1e-12)
        from nblab.uop import head_constant
        assert head_constant(make_family("sn", n, profile)) == profile.M(n)
        assert head_constant(make_family("bn", n, profile)) == \
            -n * profile.gamma_exact(n)
        assert head_constant(make_family("fn", n, profile)) == profile.M(n) - 1
        assert ut_head(n, profile) == profile.hp(n)
        assert math.isclose(ut_head(n, profile),
                            ut_direct(n, profile, 1.0 / (2 * n)),
                            rel_tol=1e-12, abs_tol=1e-12)
    print("[A6] divergence witnesses and exact head constants: pass")


def test_a07_isometry_spot_checks(profile):
    t0 = time.perf_counter()
    probes = [BeurlingSum.make([(Fraction(1), Fraction(1))]),
              make_family("sn", 2, profile),
              make_family("sn", 3, profile),
              make_family("vn", 3, profile),
              make_family("bn", 5, profile)]
    for f in probes:
        rep = isometry_check(f, x_max=1e4)
        assert rep.satisfied
        assert rep.discrepancy <= rep.tolerance
        assert rep.tolerance <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"[A7] isometry spot checks, far cutoff 1e4: pass ({elapsed:.1f}s)")


def test_a08_mellin_checks():
    t0 = time.perf_counter()
    table = sieve_mobius(10 ** 6)
    res = mellin_numeric(table, "M", 2.0, 10 ** 6)
    assert abs(res.value - 3.0 / math.pi ** 2) <= 1e-6
    res_g = mellin_numeric(table, "xg", 2.0, 10 ** 6)
    assert abs(res_g.value - 6.0 / math.pi ** 2) <= res_g.tail_bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[A8] truncated Mellin vs closed forms at s=2: pass "
          f"({elapsed:.1f}s)")


def test_a09_engine_cross_validation(profile):
    rng = random.Random(20240817)
    checked = 0
    while checked < 50:
        fam = rng.choice(("sn", "vn", "bn", "fn", "rn"))
        n = rng.randint(2, 50)
        f = make_family(fam, n, profile)
        if not f.terms:
            continue
        pw = to_piecewise(f, NEG_CHI, 1e-2)
        closed = lp_norm(pw, 2.0, include_far=False)
        quad = float(np.sum(quad_abs_p(pw.a, pw.b, pw.c, pw.lo, pw.hi,
                                       2.0, 32)))
        assert math.isclose(closed.power_value, quad, rel_tol=1e-9)
        checked += 1
    ti = TIndicator(Fraction(1, 2), 1)
    vals = [lp_norm(to_piecewise(Difference(riemann_sum_T(Fraction(1, 2), 1, n),
                                            ti), None, 1e-5), 2.0)
            for n in (4, 16, 64)]
    assert vals[1].upper < vals[0].lower
    assert vals[2].upper < vals[1].lower
    print("[A9] closed form vs quadrature (50 instances) and "
          "Riemann-sum contraction: pass")


def test_a10_performance_targets(profile):
    t0 = time.perf_counter()
    table = sieve_mobius(10 ** 8)
    sieve_seconds = time.perf_counter() - t0
    assert int(table.mu_array().sum()) == 1928
    assert sieve_seconds < 15.0
    del table
    t0 = time.perf_counter()
    rep = lp_distance(make_family("sn", 1000, profile), NEG_CHI, 2.0, 1e-6)
    norm_seconds = time.perf_counter() - t0
    assert norm_seconds < 60.0
    # the near-zero tail allowance is one-sided and intentionally loose for
    # this family; the computed value and its quadrature error are the
    # reproducibility-relevant quantities
    assert rep.quad_error < 1e-5
    assert rep.value > 0.0
    print(f"[A10] performance: sieve 1e8 in {sieve_seconds:.1f}s, "
          f"L2 sweep at n=1000 in {norm_seconds:.1f}s: pass")
