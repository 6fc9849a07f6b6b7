import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab.beurling import BeurlingSum, LAMBDA, NEG_CHI, make_family
from nblab.norms import Difference, _quad_abs_p, lp_distance, lp_norm, to_piecewise
from nblab.transform import Gn, TIndicator, riemann_sum_T
from oracles import dilation_quotient_minus_chi, lp_power_mpmath, to_piecewise_exact


def _exact_value(segments, x):
    for lo, hi, a, b, c in segments:
        if lo < x <= hi:
            return float(a) / x + float(b) + c * math.log(x)
    raise AssertionError(f"{x} not covered")


def test_single_term_flatten():
    f = BeurlingSum.make([(Fraction(1), Fraction(1))])
    pw = to_piecewise(f, NEG_CHI, 0.1)
    # chi + rho(1/x) equals 1 + 1/x - j on (1/(j+1), 1/j]
    for j in (1, 2, 5, 9):
        x = 1.0 / j - 1e-9
        assert math.isclose(float(pw.values_at(np.array([x]))[0]),
                            1.0 + 1.0 / x - j, rel_tol=1e-12)
    assert pw.a == 1.0


def test_fast_flattener_matches_exact(profile):
    for fam, n in (("bn", 7), ("vn", 9), ("sn", 5), ("fn", 6), ("rn", 12)):
        f = make_family(fam, n, profile)
        pw = to_piecewise(f, NEG_CHI, 1e-3)
        segs = to_piecewise_exact(f, NEG_CHI, Fraction(1, 1000))
        # one segment per distinct lattice point, on the same partition
        assert pw.segment_count == len(segs)
        assert np.array_equal(pw.lo, [float(seg[0]) for seg in segs])
        assert np.all(pw.hi > pw.lo)
        for lo, hi, a, b, c in segs[::5]:
            mid = (float(lo) + float(hi)) / 2.0
            assert math.isclose(float(pw.values_at(np.array([mid]))[0]),
                                _exact_value(segs, mid), rel_tol=0,
                                abs_tol=1e-10)
    # G_n breaks at every 1/m in (eps, 1)
    assert to_piecewise(Gn(12, profile), LAMBDA, 1e-3).segment_count == 998 + 1


def test_drift_bound_covers_rounding(profile):
    for fam, n in (("sn", 9), ("vn", 9), ("bn", 7), ("fn", 6), ("rn", 12)):
        f = make_family(fam, n, profile)
        pw = to_piecewise(f, NEG_CHI, 1e-3)
        segs = to_piecewise_exact(f, NEG_CHI, Fraction(1, 1000))
        mids = np.array([(float(lo) + float(hi)) / 2.0 for lo, hi, *_ in segs])
        idx = np.searchsorted(pw.lo, mids, side="left") - 1
        db = max(abs(Fraction(float(pw.b[i])) - seg[3]) for i, seg in zip(idx, segs))
        dc = max(abs(float(pw.c[i]) - seg[4]) for i, seg in zip(idx, segs))
        assert db <= pw.drift_bound, (fam, float(db), pw.drift_bound)
        assert dc <= pw.drift_bound, (fam, dc, pw.drift_bound)


def test_distinct_breakpoints_on_one_double_stay_apart():
    # each pair of thetas rounds to one double (the second pair needs more
    # than 53 bits); a lone term is never refused for its fine denominators
    for terms in ([(1, Fraction(89478486, 268435459)), (-1, Fraction(89478485, 2 ** 28))],
                  [(1, Fraction(1, 3)), (-1, Fraction(1 / 3)), (2, Fraction(2, 5))],
                  [(1, Fraction(2 ** 30 + 1, 2 ** 31))]):
        f = BeurlingSum.make(terms)
        pw = to_piecewise(f, None, 0.1)
        segs = to_piecewise_exact(f, None, Fraction(1, 10))
        assert pw.segment_count == len(segs)
        assert np.array_equal(pw.lo, [float(seg[0]) for seg in segs])
        assert all(Fraction(float(b)) == seg[3] and c == seg[4]
                   for b, c, seg in zip(pw.b, pw.c, segs))


def test_exact_flattener_tiles(profile):
    f = make_family("bn", 7, profile)
    segs = to_piecewise_exact(f, NEG_CHI, Fraction(1, 500))
    assert segs[-1][1] == 1
    assert segs[0][0] == Fraction(1, 500)
    for (lo1, hi1, *_), (lo2, hi2, *_) in zip(segs, segs[1:]):
        assert hi1 == lo2
    assert all(lo < hi for lo, hi, *_ in segs)


def test_class_c_tail_is_exactly_zero(profile):
    for fam in ("vn", "bn", "fn", "rn"):
        pw = to_piecewise(make_family(fam, 300, profile), NEG_CHI, 1e-4)
        assert pw.a == 0.0


def test_l1_matches_exact_segments(profile):
    f = make_family("bn", 7, profile)
    rep = lp_distance(f, NEG_CHI, 1.0, 1e-4)
    segs = to_piecewise_exact(f, NEG_CHI, Fraction(1, 10 ** 4))
    exact = sum(abs(b) * (hi - lo) for lo, hi, a, b, c in segs)
    assert math.isclose(rep.value, float(exact), rel_tol=0, abs_tol=1e-13)


def test_l2_matches_exact_segments(profile):
    f = make_family("vn", 8, profile)
    rep = lp_distance(f, NEG_CHI, 2.0, 1e-4, include_far=False)
    segs = to_piecewise_exact(f, NEG_CHI, Fraction(1, 10 ** 4))
    exact = math.sqrt(sum(float(b) ** 2 * float(hi - lo)
                          for lo, hi, a, b, c in segs))
    assert math.isclose(rep.value, exact, rel_tol=1e-12)


def test_chi_alone_l1():
    # the empty sum against -chi: ||chi||_1 restricted to (eps, 1]
    rep = lp_distance(BeurlingSum.make([]), NEG_CHI, 1.0, 1e-6)
    assert math.isclose(rep.value, 1.0 - 1e-6, rel_tol=1e-12)
    assert rep.upper >= 1.0 >= rep.lower


def test_theta_above_one_refused():
    # (1, 2) is not in the 1/x tail of rho(2/x), so no certificate is made
    f = BeurlingSum.make([(Fraction(1), Fraction(2))])
    with pytest.raises(ValueError, match="theta <= 1"):
        lp_distance(f, None, 2.0, 1e-3)


def test_cutoff_above_min_theta(profile):
    # on (eps, 1] a term with theta <= eps is theta/x (rho) or 0 (Phi), so
    # every cutoff in (0, 1) flattens, also one above the smallest theta
    cases = ((make_family("sn", 5, profile), NEG_CHI, 2.0, 0.5),
             (make_family("sn", 5, profile), NEG_CHI, 1.0, 0.3),
             (make_family("fn", 10, profile), None, 2.0, 0.35),
             (make_family("vn", 7, profile), NEG_CHI, 1.5, 0.4),
             (Gn(6, profile), LAMBDA, 2.0, 0.3),
             (TIndicator(Fraction(1, 4), 1), None, 2.0, 0.5))
    for f, gen, p, eps in cases:
        rep = lp_distance(f, gen, p, eps)
        assert math.isclose(rep.power_value - rep.far_tail,
                            lp_power_mpmath(f, gen, p, eps), rel_tol=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_drift_fold_brackets_mpmath(profile, p):
    # sums whose b lane rounds: rational coefficients (vn, bn, rn), log jumps
    # (gn on the 1/m lattice, T of indicators off it)
    for f, gen in ((make_family("vn", 7, profile), NEG_CHI),
                   (make_family("bn", 6, profile), NEG_CHI),
                   (make_family("rn", 8, profile), NEG_CHI),
                   (Gn(6, profile), LAMBDA),
                   (TIndicator(Fraction(1, 3), Fraction(2, 3)), None),
                   (TIndicator(Fraction(2, 7), Fraction(5, 6)), None)):
        assert to_piecewise(f, gen, 0.05).drift_bound > 0.0
        rep = lp_distance(f, gen, p, 0.05, include_far=False)
        true = lp_power_mpmath(f, gen, p, 0.05)
        assert abs(rep.power_value - true) <= rep.quad_error
        assert rep.lower <= true ** (1.0 / p) <= rep.upper


def test_closed_form_rounding_brackets_mpmath(profile):
    # no coefficient rounds here (drift_bound 0), so only the bound on the
    # float64 evaluation of the closed forms keeps the truth inside: the p = 2
    # form, and at p = 1 the signed pieces between roots and their sum
    for f, gen, p in ((make_family("sn", 5, profile), NEG_CHI, 2.0),
                      (Gn(20, profile), LAMBDA, 2.0),
                      (make_family("sn", 7, profile), NEG_CHI, 1.0),
                      (Gn(24, profile), LAMBDA, 1.0),
                      (make_family("fn", 2, profile), LAMBDA, 1.0)):
        assert to_piecewise(f, gen, 0.05).drift_bound == 0.0
        rep = lp_distance(f, gen, p, 0.05, include_far=False)
        true = lp_power_mpmath(f, gen, p, 0.05)
        assert abs(rep.power_value - true) <= rep.quad_error
        assert rep.lower <= true ** (1.0 / p) <= rep.upper


def test_drift_fold_uses_segment_norm(profile):
    # the fold reads ||v||_2 ~ 0.13, not the sup of |v| over the segments
    assert lp_distance(Gn(1000, profile), LAMBDA, 2.0, 1e-6).quad_error < 1e-9


def test_far_tail_exact_for_sn(profile):
    for n in (10, 100):
        rep = lp_distance(make_family("sn", n, profile), NEG_CHI, 2.0, 1e-4)
        assert math.isclose(rep.far_tail, float(profile.g_exact(n)) ** 2,
                            rel_tol=1e-12)


def test_l1_infinite_when_tail_present(profile):
    rep = lp_distance(make_family("sn", 3, profile), NEG_CHI, 1.0, 1e-4,
                      include_far=True)
    assert rep.value == math.inf
    assert rep.err == math.inf


def test_vn_sn_gap_is_scaled_single_term(profile):
    # the gap between the two families is |g(n)| times a single dilation
    n = 40
    g = abs(float(profile.g_exact(n)))
    gap = Difference(make_family("vn", n, profile),
                     make_family("sn", n, profile))
    rep = lp_norm(to_piecewise(gap, None, 1e-6), 2.0)
    single = lp_distance(BeurlingSum.make([(Fraction(1), Fraction(1))]),
                         None, 2.0, 1e-6)
    assert math.isclose(rep.value, g * single.value, rel_tol=1e-9)


def test_p2_closed_form_vs_quadrature_randomized(profile):
    rng = random.Random(20240817)
    for _ in range(50):
        fam = rng.choice(("sn", "vn", "bn", "fn", "rn"))
        n = rng.randint(2, 50)
        f = make_family(fam, n, profile)
        if not f.terms:
            continue
        pw = to_piecewise(f, NEG_CHI, 1e-2)
        closed = lp_norm(pw, 2.0, include_far=False)
        quad = float(np.sum(_quad_abs_p(pw.a, pw.b, pw.c, pw.lo, pw.hi,
                                        2.0, 32)))
        assert math.isclose(closed.power_value, quad, rel_tol=1e-9)


def test_general_p_interval_contains_p2(profile):
    f = make_family("bn", 12, profile)
    pw = to_piecewise(f, NEG_CHI, 1e-3)
    closed = lp_norm(pw, 2.0)
    near2 = lp_norm(pw, 2.0 + 1e-12)
    assert abs(closed.power_value - near2.power_value) <= \
        near2.quad_error + 1e-9


def test_l1_with_log_segments_vs_quadrature(profile):
    g = Gn(12, profile)
    rep = lp_distance(g, LAMBDA, 1.0, 1e-3)
    oracle = sum(si.quad(lambda x: abs(g(x) - math.log(x)), lo, hi,
                         limit=800)[0]
                 for lo, hi in ((1e-3, 1 / 12), (1 / 12, 0.5), (0.5, 1.0)))
    assert math.isclose(rep.value, oracle, rel_tol=1e-6, abs_tol=1e-7)


def test_general_p_gn_vs_quadrature(profile):
    g = Gn(9, profile)
    rep = lp_distance(g, LAMBDA, 1.7, 1e-3, include_far=False)
    oracle = sum(si.quad(lambda x: abs(g(x) - math.log(x)) ** 1.7, lo, hi,
                         limit=800)[0]
                 for lo, hi in ((1e-3, 1 / 9), (1 / 9, 0.5), (0.5, 1.0)))
    assert math.isclose(rep.power_value, oracle, rel_tol=1e-7)
    assert rep.quad_error < 1e-9


def test_monotone_in_eps(profile):
    f = make_family("sn", 20, profile)
    lowers = [lp_distance(f, NEG_CHI, 2.0, e).lower
              for e in (1e-2, 1e-3, 1e-4, 1e-5)]
    assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))


def test_certified_interval_brackets_truth(profile):
    # refine eps: the high-resolution value must lie in the coarse interval
    f = make_family("vn", 15, profile)
    coarse = lp_distance(f, NEG_CHI, 2.0, 1e-3)
    fine = lp_distance(f, NEG_CHI, 2.0, 1e-6)
    assert coarse.lower - 1e-12 <= fine.value <= coarse.upper + 1e-12


def test_riemann_sums_approach_transformed_indicator(profile):
    ti = TIndicator(Fraction(1, 2), 1)
    vals = []
    for n in (4, 16, 64):
        s = riemann_sum_T(Fraction(1, 2), 1, n)
        vals.append(lp_norm(to_piecewise(Difference(s, ti), None, 1e-5), 2.0))
    assert vals[0].value > vals[1].value > vals[2].value
    assert vals[1].upper < vals[0].lower
    assert vals[2].upper < vals[1].lower


def test_dilation_quotient():
    for a in (4.0, 2.0, 1.5, 1.1):
        pw = dilation_quotient_minus_chi(a, 1e-8)
        rep = lp_norm(pw, 2.0)
        c = math.log(a) / (a - 1.0)
        oracle = si.quad(
            lambda x: (c - 1.0) ** 2 if x <= 1.0 / a
            else (-math.log(x) / (a - 1.0) - 1.0) ** 2, 1e-8, 1.0,
            points=[1.0 / a], limit=200)[0]
        assert math.isclose(rep.power_value, oracle, rel_tol=1e-7)
    v = [lp_norm(dilation_quotient_minus_chi(a, 1e-8), 2.0).value
         for a in (2.0, 1.5, 1.1, 1.01)]
    assert v[0] > v[1] > v[2] > v[3]


def test_flatten_budget(profile):
    from nblab.norms import BudgetError
    # around 4e7 lattice points; must refuse rather than exhaust memory
    with pytest.raises(BudgetError):
        lp_distance(make_family("rn", 100, profile), LAMBDA, 2.0, 1e-6)


def test_validation_errors(profile):
    f = make_family("sn", 5, profile)
    with pytest.raises(ValueError):
        to_piecewise(f, NEG_CHI, 1.5)
    with pytest.raises(ValueError):
        lp_norm(to_piecewise(f, NEG_CHI, 1e-3), 0.5)
    with pytest.raises(TypeError):
        to_piecewise(object(), None, 1e-3)
    with pytest.raises(ValueError):
        dilation_quotient_minus_chi(0.9)


small_sums = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=3).map(Fraction),
              st.fractions(min_value=Fraction(1, 12), max_value=1,
                           max_denominator=12)),
    min_size=1, max_size=5)


@given(small_sums)
@settings(max_examples=40, deadline=None)
def test_flatten_matches_pointwise(terms):
    f = BeurlingSum.make(terms)
    if not f.terms:
        return
    pw = to_piecewise(f, NEG_CHI, 1e-3)
    # tie segments of zero or ulp width have their midpoint exactly on a
    # lattice point, where the one-sided segment convention and float rho
    # legitimately disagree; sample only comfortably wide segments
    wide = (pw.hi - pw.lo) > 1e-9 * pw.hi
    mids = ((pw.lo + pw.hi) / 2.0)[wide]
    take = mids[:: max(1, len(mids) // 25)]
    direct = np.array([f(float(x)) + 1.0 for x in take])
    assert np.allclose(pw.values_at(take), direct, atol=1e-9, rtol=0)


@given(small_sums, st.sampled_from([1.0, 2.0, 1.5, 3.0]))
@settings(max_examples=30, deadline=None)
def test_norm_nonnegative_and_certified(terms, p):
    f = BeurlingSum.make(terms)
    if not f.terms:
        return
    rep = lp_distance(f, None, p, 1e-3, include_far=False)
    assert rep.value >= 0.0
    assert rep.upper >= rep.value >= rep.lower >= 0.0
