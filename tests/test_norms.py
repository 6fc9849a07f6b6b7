import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab import norms
from nblab.beurling import BeurlingSum, LAMBDA, NEG_CHI, make_family
from nblab.norms import (_LADDER, Difference, PiecewiseHyperbolic, _gl_nodes, lp_distance,
                         lp_norm, to_piecewise)
from nblab.transform import Gn, TIndicator
from nblab.uop import apply_u, u_l2_norm
from oracles import (_quad_refined, dilation_quotient_minus_chi, lp_power_mpmath,
                     merged_jumps_sorted, quad_abs_p, riemann_sum_via_make, segments_mpmath,
                     sq_integral_whole_array, to_piecewise_exact, to_piecewise_whole,
                     values_at)


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
        assert math.isclose(float(values_at(pw, np.array([x]))[0]),
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
            assert math.isclose(float(values_at(pw, np.array([mid]))[0]),
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


def _u_image(family, n, profile):
    """The class-B sum u_l2_norm flattens for a family: thetas k/n and
    Fraction coefficients mu(k)/k, in the long double lane."""
    usum = apply_u(make_family(family, n, profile))
    t = min(theta for _, theta in usum.terms)
    return BeurlingSum.make([(d, t / theta) for d, theta in usum.terms])


# lanes whose rounding the drift bound covers besides the rho sums above: a
# dense Phi lane, a merged one, a Phi lane beside a rho difference, a tiled
# long double lane of irregular coefficients, and one lone irregular term,
# whose jumps round only in its coefficient
_DRIFT_CASES = {
    "gn": (lambda pr: Gn(30, pr), LAMBDA),
    "t_indicator": (lambda pr: TIndicator(Fraction(1, 3), Fraction(2, 3)), None),
    "fn_less_gn": (lambda pr: Difference(make_family("fn", 10, pr), Gn(10, pr)), None),
    "vn_u": (lambda pr: _u_image("vn", 10, pr), NEG_CHI),
    "one_third": (lambda pr: BeurlingSum.make([(Fraction(1, 3), Fraction(1, 2))]), NEG_CHI),
}


@pytest.mark.parametrize("case", list(_DRIFT_CASES))
def test_drift_bound_covers_phi_and_tiled_lanes(profile, monkeypatch, case):
    # every segment's b within drift_bound of its 40-digit value, c exact,
    # the summed jumps within their own bound, and the bound the same bits
    # whatever the chunking
    make, gen = _DRIFT_CASES[case]
    f = make(profile)
    made = []
    for name in ("_lattice_jumps", "_merged_jumps"):
        monkeypatch.setattr(norms, name, lambda *args, real=getattr(norms, name):
                            made.append(real(*args)) or made[-1])
    bounds = []
    for block in (7, 2 ** 15):
        monkeypatch.setattr(norms, "_BLOCK", block)
        pw = to_piecewise(f, gen, 1e-3)
        bounds.append(pw.drift_bound)
    assert bounds[0] == bounds[1] > 0.0
    segs = segments_mpmath(f, gen, 1e-3, dps=40)
    assert pw.segment_count == len(segs)
    exact_b = [b for *_, b, _ in segs]
    jumps = made[-1]
    db = jumps.take(0, jumps.n)[1]
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpf(b) - exact) for b, exact in zip(pw.b.tolist(), exact_b))
        assert err <= pw.drift_bound, (case, float(err), pw.drift_bound)
        # jump i, descending, goes from segment n - i down to n - i - 1
        n = jumps.n
        ratios = (d.as_integer_ratio() for d in db)
        jump_err = mpmath.fsum(abs(mpmath.mpf(int(num)) / int(den)
                                   - (exact_b[n - i - 1] - exact_b[n - i]))
                               for i, (num, den) in enumerate(ratios))
        # within the slack the drift bound gives its own float64 arithmetic
        assert 0.0 < jump_err <= jumps.err * (1.0 + 1e-9), (case, float(jump_err), jumps.err)
    assert [c for *_, c in segs] == pw.c.tolist()


def _matches_exact(f, eps):
    pw = to_piecewise(f, None, eps)
    segs = to_piecewise_exact(f, None, Fraction(eps))
    assert pw.segment_count == len(segs)
    assert np.array_equal(pw.lo, [float(seg[0]) for seg in segs])
    assert all(Fraction(float(b)) == seg[3] and c == seg[4]
               for b, c, seg in zip(pw.b, pw.c, segs))


def _same_jumps(rho, phi, eps):
    """_merged_jumps, expanded from its period chunk by chunk, against the
    sort of the whole lattice, bit for bit."""
    got, want = norms._merged_jumps(rho, phi, eps), merged_jumps_sorted(rho, phi, eps)
    assert got.n == len(want.xs)
    assert got.exact == (want.db.dtype == np.int64)
    for chunk in (4099, got.n):
        if not got.n:
            break
        xs, db, dc = zip(*(got.take(i0, min(i0 + chunk, got.n))
                           for i0 in range(0, got.n, chunk)))
        for lane, g, w in (("xs", xs, want.xs), ("db", db, want.db), ("dc", dc, want.dc)):
            assert (g[0] is None) == (w is None), lane
            if w is not None:
                g = np.concatenate(g)
                assert g.dtype == w.dtype and np.array_equal(g, w), lane
    assert got.err == want.err


def test_distinct_breakpoints_on_one_double_stay_apart():
    # each pair of thetas rounds to one double (the second pair needs more
    # than 53 bits); a lone term is never refused for its fine denominators.
    # Their lcm passes 1/eps, so each lattice is one period
    for terms in ([(1, Fraction(89478486, 268435459)), (-1, Fraction(89478485, 2 ** 28))],
                  [(1, Fraction(1, 3)), (-1, Fraction(1 / 3)), (2, Fraction(2, 5))],
                  [(1, Fraction(2 ** 30 + 1, 2 ** 31))]):
        f = BeurlingSum.make(terms)
        _matches_exact(f, 0.1)
        _same_jumps(f.lanes, norms._NO_TERMS, 0.1)


def test_tiled_ties_decided_exactly():
    # Q = 2^18 and eps = 1/(2.5 Q): three periods, and a spread num * den j
    # near 2^54, so every tie of the pattern (all terms meet at y = 1, the
    # period join) is decided on cross-multiplied integers.  Distinct
    # breakpoints of a tiled lattice differ by a relative
    # eps / (theta theta' Q), which the flatten budget (theta <= 2e7 eps)
    # and Q < 1/eps keep above 2.5e-15, over ten ulps: none share a double
    q = 2 ** 18
    f = BeurlingSum.make([(1, 1), (-2, Fraction(q - 1, q)), (Fraction(1, 3), Fraction(1, 2)),
                          (5, Fraction(5, 8))])
    eps = 1.0 / (2.5 * q)
    lanes = f.lanes
    assert max(lanes.num) * max(lanes.den * (lanes.num * q // lanes.den + 1)) >= norms._SEPARABLE
    _same_jumps(lanes, norms._NO_TERMS, eps)


@pytest.mark.parametrize("family", ["fn", "rn"])
@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_tiled_jumps_equal_whole_lattice_sort(profile, family, n):
    # every cutoff whose lattice fits the flatten budget; rn 2 is the empty
    # sum and fn 1000 at 1e-3 is one period (Q eps = 1)
    lanes = make_family(family, n, profile).lanes
    for eps in (1e-3, 1e-4, 1e-6):
        if np.sum(lanes.thetas() / eps // 1.0 + 1.0) <= norms.FLATTEN_BUDGET:
            _same_jumps(lanes, norms._NO_TERMS, eps)


@pytest.mark.parametrize("family", ["sn", "vn", "bn"])
@pytest.mark.parametrize("n", [1, 10, 100])
def test_tiled_jumps_of_u_images(profile, family, n):
    # the class-B sums u_l2_norm flattens: thetas k/n, Fraction coefficients
    # mu(k)/k in the long double lane; vn 1 folds to the empty sum
    usum = apply_u(make_family(family, n, profile))
    thetas = [theta for _, theta in usum.terms] or [Fraction(1)]
    t = min(thetas)
    h = BeurlingSum.make([(d, t / theta) for d, theta in usum.terms])
    assert (family, n) != ("vn", 1) or not len(h.lanes)
    for x_max in (1e2, 1e3):
        _same_jumps(h.lanes, norms._NO_TERMS, float(t) / x_max)


def test_one_period_lattices(profile):
    # Q eps >= 1 (Q = lcm(1..12) for an sn mixture of k/n thetas), a Phi
    # lane (its jump moves with log j) and object-dtype thetas past 2^53
    # each flatten as one period, the whole lattice
    mix = norms._term_spec(Difference(make_family("fn", 12, profile),
                                      BeurlingSum.make(make_family("sn", 12, profile).terms[1:])))
    _same_jumps(mix[0], mix[1], 1e-4)
    rho, phi, *_ = norms._term_spec(Difference(make_family("fn", 10, profile), Gn(10, profile)))
    _same_jumps(rho, phi, 1e-4)
    wide = BeurlingSum.make([(1, Fraction(2 ** 60 + 1, 2 ** 61)), (-2, Fraction(1, 3)),
                             (3, Fraction(3, 7))])
    assert wide.lanes.num.dtype == object
    _same_jumps(wide.lanes, norms._NO_TERMS, 1e-3)
    _matches_exact(wide, 1e-3)


def test_tiled_theta_one_starts_at_x_one(profile):
    # x = 1 of theta = 1 is in the start state, in period 0 only; the
    # difference holds two theta = 1 terms, whose jumps cancel there
    _matches_exact(make_family("fn", 10, profile), 1e-3)
    rho, phi, *_ = norms._term_spec(Difference(make_family("fn", 10, profile),
                                               make_family("fn", 12, profile)))
    assert np.count_nonzero(rho.num == rho.den) == 2
    _same_jumps(rho, phi, 1e-3)


def test_empty_sum_flattens(profile):
    # vn 1 folds to no terms; the lcm of no denominators is 1
    assert not len(make_family("vn", 1, profile).lanes)
    _same_jumps(norms._NO_TERMS, norms._NO_TERMS, 1e-3)
    assert to_piecewise(make_family("vn", 1, profile), NEG_CHI, 1e-3).segment_count == 1


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
    # form, and at p = 1 the signed pieces between roots and their sum, with
    # and without log segments (Phi terms always carry a drift bound)
    for f, gen, p in ((make_family("sn", 5, profile), NEG_CHI, 2.0),
                      (make_family("sn", 20, profile), LAMBDA, 2.0),
                      (make_family("sn", 7, profile), NEG_CHI, 1.0),
                      (make_family("sn", 24, profile), LAMBDA, 1.0),
                      (make_family("fn", 2, profile), LAMBDA, 1.0)):
        assert to_piecewise(f, gen, 0.05).drift_bound == 0.0
        rep = lp_distance(f, gen, p, 0.05, include_far=False)
        true = lp_power_mpmath(f, gen, p, 0.05)
        assert abs(rep.power_value - true) <= rep.quad_error
        assert rep.lower <= true ** (1.0 / p) <= rep.upper


def test_l1_bisected_root_brackets_mpmath(profile):
    # sn6 - lambda has a sign change on a segment where neither a nor c is
    # zero, so its root comes from bisection, not a closed form
    f = make_family("sn", 6, profile)
    pw = to_piecewise(f, LAMBDA, 0.05)
    lo_v = values_at(pw, pw.lo * (1.0 + 1e-12))
    hi_v = values_at(pw, pw.hi)
    assert pw.a != 0.0 and np.any((lo_v * hi_v < 0.0) & (pw.c != 0.0))
    rep = lp_distance(f, LAMBDA, 1.0, 0.05, include_far=False)
    true = lp_power_mpmath(f, LAMBDA, 1.0, 0.05)
    assert abs(rep.power_value - true) <= rep.quad_error <= 1e-10 * true
    assert rep.lower <= true <= rep.upper


def _segment_features(pw):
    """(sign changes, interior critical points, v == 0 segments) of pw."""
    a, b, c, lo, hi = pw.a, pw.b, pw.c, pw.lo, pw.hi
    vu, vw = a / lo + b + c * np.log(lo), a / hi + b + c * np.log(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        crit = np.where(c != 0.0, a / np.where(c != 0.0, c, 1.0), np.nan)
    return (int(np.sum(vu * vw < 0.0)), int(np.sum((crit > lo) & (crit < hi))),
            int(np.sum((a == 0.0) & (b == 0.0) & (c == 0.0))))


# name: (build, generator, eps, mpmath digits, feature index it must have)
_GENERAL_P_CASES = {
    "sn10_roots": (lambda prof: make_family("sn", 10, prof), NEG_CHI, 0.02, 30, 0),
    "gn9_critical_points": (lambda prof: Gn(9, prof), LAMBDA, 0.05, 30, 1),
    "fn20_zero_segments": (lambda prof: make_family("fn", 20, prof), NEG_CHI, 0.02, 30, 2),
    "t_indicator": (lambda prof: TIndicator(Fraction(2, 7), Fraction(5, 6)), None, 0.05, 30, 1),
    # root (1 - theta)/2 = 1/5 + 1e-12, just above the breakpoint 1/5; theta's
    # breakpoints pass within 1e-13 of those of rho(1/x), too close for 30 digits
    "root_near_breakpoint": (lambda prof: BeurlingSum.make(
        [(1, Fraction(1)), (-1, Fraction(3, 5) - Fraction(2, 10 ** 12))]), None, 0.05, 40, 0),
}


@pytest.mark.parametrize("p", [1.0, 1.1, 1.5, 3.0, 4.5])
@pytest.mark.parametrize("case", list(_GENERAL_P_CASES))
def test_general_p_brackets_mpmath(profile, case, p):
    build, gen, eps, dps, feature = _GENERAL_P_CASES[case]
    f = build(profile)
    assert _segment_features(to_piecewise(f, gen, eps))[feature] > 0
    rep = lp_distance(f, gen, p, eps, include_far=False)
    true = lp_power_mpmath(f, gen, p, eps, dps=dps)
    assert abs(rep.power_value - true) <= rep.quad_error
    assert rep.lower <= true ** (1.0 / p) <= rep.upper
    assert rep.quad_error <= 1e-10 * true


@pytest.mark.parametrize("p", [1.1, 1.5, 3.0])
def test_general_p_pure_inverse_segments(p):
    # v = a/x on (eps, 1], cut into wide and narrow segments: the narrow
    # ones are 3e-5 to 1.6e-4 of their distance from 0 wide, where a single
    # node looks enough; the exact power is |a|^p (eps^(1-p) - 1) / (p - 1)
    eps, a = 1e-4, -0.002
    edges = np.append(1.5e-4 + np.array([-5e-5, 0.0, 5e-9, 1.5e-8, 3.9e-8]), 1.0)
    pw = PiecewiseHyperbolic(edges=edges, b=np.zeros(5), c=np.zeros(5), a=a,
                             sup_const=0.0, has_log_tail=False)
    rep = lp_norm(pw, p, include_far=False)
    with mpmath.workdps(30):
        q = mpmath.mpf(p)
        true = abs(mpmath.mpf(a)) ** q * (mpmath.mpf(eps) ** (1 - q) - 1) / (q - 1)
    assert abs(rep.power_value - true) <= rep.quad_error <= 1e-10 * true


@pytest.mark.parametrize("gen, p", [(NEG_CHI, 40.0), (LAMBDA, 40.0), (NEG_CHI, 300.0)],
                         ids=["neg_chi-40", "lambda-40", "neg_chi-300"])
def test_general_p_large_exponent_brackets_mpmath(profile, gen, p):
    # next to the roots the lower bound 2h m^p of a piece underflows to 0,
    # and its tolerance must not go with it
    f = make_family("sn", 10, profile)
    rep = lp_distance(f, gen, p, 0.02, include_far=False)
    true = lp_power_mpmath(f, gen, p, 0.02)
    assert abs(rep.power_value - true) <= rep.quad_error <= 1e-10 * true
    assert rep.lower <= true ** (1.0 / p) <= rep.upper


_FOUR_SEGMENTS = (1e-4, 1.5e-4, 1e-3, 0.5, 1.0)


@pytest.mark.parametrize("edges, p", [
    pytest.param(_FOUR_SEGMENTS, 76.0, id="76.0"),
    pytest.param(_FOUR_SEGMENTS, 200.0, id="200.0"),
    pytest.param((1e-6, 1.0), 76.0, id="one_segment-76.0"),
    pytest.param((1e-6, 1.0), 150.0, id="one_segment-150.0"),
    pytest.param((1e-6, 1.0), 310.0, id="one_segment-310.0"),
])
def test_general_p_past_float_range(edges, p):
    # v = 1/x on (1e-4, 1]: at p = 76 the ellipse's (M + g m)^p overflows on
    # the first segment but the power, 1.3e298, does not; at p = 200 the
    # power does, and the report is inf.  On the one segment (1e-6, 1] the
    # tolerance itself passes the float range, and the power must not take
    # a one-node Gauss value (7.6e22 at p = 76) in place of inf
    eps = edges[0]
    pw = PiecewiseHyperbolic(edges=np.array(edges), b=np.zeros(len(edges) - 1),
                             c=np.zeros(len(edges) - 1), a=1.0, sup_const=0.0,
                             has_log_tail=False)
    rep = lp_norm(pw, p, include_far=False)
    with mpmath.workdps(30):
        q = mpmath.mpf(p)
        true = (mpmath.mpf(eps) ** (1 - q) - 1) / (q - 1)
    if true < np.finfo(np.float64).max:
        assert abs(rep.power_value - true) <= rep.quad_error <= 1e-10 * true
    else:
        assert rep.power_value == rep.value == rep.quad_error == math.inf
        assert rep.lower == 0.0


@pytest.mark.parametrize("gen, p", [(NEG_CHI, 700.0), (LAMBDA, 300.0)],
                         ids=["neg_chi-700", "lambda-300"])
def test_near_zero_tail_past_float_range(profile, gen, p):
    # the power is finite (7.2e142, 4.6e179) but a factor of the near-zero
    # tail bound passes the float range, and so does the bound
    rep = lp_distance(make_family("sn", 10, profile), gen, p, 0.02)
    assert math.isfinite(rep.power_value) and rep.tail_low == rep.upper == math.inf


@pytest.mark.parametrize("family, gen", [("sn", NEG_CHI), ("gn", LAMBDA)])
def test_power_past_float_range_bounds_norm_below_by_zero(profile, family, gen):
    # on (0.02, 1] |sn10 + chi| <= 1.62 and the near-zero sup is 8, so the
    # norm is finite; only its 2000th power passes the float range, which
    # says nothing about how small the norm is
    f = make_family(family, 10, profile) if family == "sn" else Gn(10, profile)
    rep = lp_distance(f, gen, 2000.0, 0.02)
    assert rep.power_value == rep.quad_error == math.inf
    assert rep.lower == 0.0 and rep.upper == math.inf


def test_near_zero_tail_in_logarithms():
    # sup_const^p = 1e310 passes the float range, the bound 1e310 eps does not
    pw = PiecewiseHyperbolic(edges=np.array([1e-6, 1.0]), b=np.zeros(1), c=np.zeros(1),
                             a=0.0, sup_const=10.0, has_log_tail=False)
    assert math.isclose(lp_norm(pw, 310.0).tail_low, 1e304, rel_tol=1e-9)


@pytest.mark.parametrize("log_tail", [False, True])
def test_near_zero_tail_not_below_its_formula(log_tail):
    # cst^p eps, or (cst eps^(1/p) + Gamma(p + 1, -log eps)^(1/p))^p with
    # the log tail, at 60 digits of the same doubles: rounded to nearest, 73
    # of the grid's 240 results lay below it (70 without the log tail)
    below = []
    for cst in (1.0 / 3.0, 1.0, 1.1, 2.5, 62.0, 371.3):
        for eps in (1e-6, 1e-5, 1e-4, 0.05):
            pw = PiecewiseHyperbolic(edges=np.array([eps, 1.0]), b=np.zeros(1),
                                     c=np.zeros(1), a=0.0, sup_const=cst,
                                     has_log_tail=log_tail)
            for p in (1.0, 1.1, 1.5, 2.0, 3.0):
                with mpmath.workdps(60):
                    c, e, q = mpmath.mpf(cst), mpmath.mpf(eps), mpmath.mpf(p)
                    exact = c ** q * e
                    if log_tail:
                        log_part = mpmath.gammainc(q + 1, -mpmath.log(e))
                        exact = (c * e ** (1 / q) + log_part ** (1 / q)) ** q
                    if norms._near_zero_tail(pw, p) < exact:
                        below.append((cst, eps, p))
    assert below == []


def test_general_p_flat_extrema_bounded_rounds(monkeypatch):
    # 40 segments tiling (0.1, 1], each with its minimum v = 1e-14 at an
    # interior critical point: within rounding noise of it no order fits,
    # and halving every piece there triaged 6.6M pieces in all; the
    # round budget settles them once a round holds 2^16
    edges = np.linspace(0.1, 1.0, 41)
    x = 0.5 * (edges[:-1] + edges[1:])
    c = 1.0 / x
    b = 1e-14 - (1.0 / x + c * np.log(x))
    pw = PiecewiseHyperbolic(edges=edges, b=b, c=c, a=1.0, sup_const=0.0, has_log_tail=False)
    triaged, triage = [], norms._triage
    monkeypatch.setattr(norms, "_triage",
                        lambda a, p, u, *rest: triaged.append(len(u)) or triage(a, p, u, *rest))
    rep = lp_norm(pw, 1.5, include_far=False)
    assert sum(triaged) <= 1 << 20
    with mpmath.workdps(40):
        true = 0
        for u, w, bb, cc in zip(*(map(mpmath.mpf, col) for col in (pw.lo, pw.hi, b, c))):
            true += mpmath.quad(lambda t: abs(1 / t + cc * mpmath.log(t) + bb) ** 1.5,
                                [u, 1 / cc, w])
    assert abs(rep.power_value - true) <= rep.quad_error <= 1e-4 * true


def test_mpmath_oracle_refines_until_its_estimate_is_small():
    # one tanh-sinh pass misses a peak of width 1e-5 by a factor of about 400; the
    # oracle bisects until mpmath's estimates are 1e-20 of the integral
    with mpmath.workdps(30):
        d = mpmath.mpf("1e-10")
        iv = [(mpmath.mpf(-1), mpmath.mpf(1), lambda x: 1 / (x * x + d))]
        exact = 2 / mpmath.sqrt(d) * mpmath.atan(1 / mpmath.sqrt(d))
        assert abs(_quad_refined(iv) - exact) <= 1e-20 * exact
        with pytest.raises(ArithmeticError):
            _quad_refined(iv, rounds=1)


def test_gauss_nodes_match_mpmath():
    # the general-p rounding bound takes nodes within eps and weights within
    # 2 eps relative
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(40):
        for n in _LADDER:
            for x, w in zip(*_gl_nodes(n)):
                r = mpmath.findroot(lambda t: mpmath.legendre(n, t), mpmath.mpf(x))
                exact = 2 / ((1 - r * r) * (n * mpmath.legendre(n - 1, r) / (1 - r * r)) ** 2)
                assert abs(mpmath.mpf(x) - r) <= eps
                assert abs(mpmath.mpf(w) - exact) <= 2 * eps * exact


def test_drift_fold_uses_segment_norm(profile):
    # the fold reads ||v||_2 ~ 0.13, not the sup of |v| over the segments
    assert lp_distance(Gn(1000, profile), LAMBDA, 2.0, 1e-6).quad_error < 1e-9


def test_far_tail_exact_for_sn(profile):
    for n in (10, 100):
        rep = lp_distance(make_family("sn", n, profile), NEG_CHI, 2.0, 1e-4)
        assert math.isclose(rep.far_tail, float(profile.g_exact(n)) ** 2,
                            rel_tol=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_far_tail_rounding_is_bounded(p):
    # one short segment leaves the power almost all far tail |a|^p/(p-1),
    # whose pow, quotient and sum into the power quad_error must cover; a
    # counts as the exact double it is
    lo = 1.0 - 2.0 ** -30
    pw = PiecewiseHyperbolic(edges=np.array([lo, 1.0]), b=np.array([0.1]), c=np.array([0.0]),
                             a=0.7, sup_const=0.0, has_log_tail=False)
    rep = lp_norm(pw, p)
    assert rep.far_tail > 1e6 * (rep.power_value - rep.far_tail)
    with mpmath.workdps(40):
        a, b = mpmath.mpf(pw.a), mpmath.mpf(0.1)
        true = (mpmath.quad(lambda x: abs(a / x + b) ** p, [mpmath.mpf(lo), 1])
                + a ** p / (p - 1))
        assert abs(rep.power_value - true) <= rep.quad_error


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_enclosure_ends_bracket_the_exact_roots(profile, p):
    # lower and upper lie on their sides of the exact p-th roots of the
    # report's own doubles, taken at 50 digits, and within 1e-13 of them;
    # value +- err holds both
    for family in ("sn", "vn", "bn", "fn", "rn"):
        for n in (10, 30, 100, 300, 1000):
            for gen in (NEG_CHI, LAMBDA):
                rep = lp_distance(make_family(family, n, profile), gen, p, 1e-3)
                with mpmath.workdps(50):
                    pv, qe, tl, th = map(mpmath.mpf, (rep.power_value, rep.quad_error,
                                                      rep.tail_low, rep.tail_high))
                    low = max(pv - qe, 0) ** (1 / mpmath.mpf(p))
                    high = (pv + qe + tl + th) ** (1 / mpmath.mpf(p))
                    assert low * (1 - 1e-13) <= rep.lower <= low, (family, n, gen)
                    assert high <= rep.upper <= high * (1 + 1e-13), (family, n, gen)
                assert (Fraction(rep.value) - Fraction(rep.err) <= Fraction(rep.lower)
                        and Fraction(rep.upper) <= Fraction(rep.value) + Fraction(rep.err))


def test_l1_infinite_when_tail_present(profile):
    rep = lp_distance(make_family("sn", 3, profile), NEG_CHI, 1.0, 1e-4,
                      include_far=True)
    assert rep.value == math.inf
    assert rep.err == math.inf
    # a true divergence: the quadrature error stays finite and so does nothing else
    assert math.isfinite(rep.quad_error) and rep.lower == rep.upper == math.inf


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
        quad = float(np.sum(quad_abs_p(pw.a, pw.b, pw.c, pw.lo, pw.hi,
                                       2.0, 32)))
        assert math.isclose(closed.power_value, quad, rel_tol=1e-9)


@pytest.mark.parametrize("segments", [norms._BLOCK - 1, norms._BLOCK, norms._BLOCK + 1,
                                      7 * norms._BLOCK // 2])
@pytest.mark.parametrize("kind", ["sn", "gn"])
def test_blocked_sq_integral_equals_whole_array(profile, kind, segments):
    # every 1/m above eps = 1/(N + 1/2) breaks, m = 2..N: N segments; sn has
    # c == 0 throughout (its log lanes are skipped), gn has log segments
    eps = 1.0 / (segments + 0.5)
    if kind == "sn":
        pw = to_piecewise(make_family("sn", 12, profile), NEG_CHI, eps)
    else:
        pw = to_piecewise(Gn(12, profile), LAMBDA, eps)
    assert pw.segment_count == segments
    assert np.any(pw.c) == (kind == "gn")
    assert norms._sq_integral(pw) == sq_integral_whole_array(pw)


def test_blocked_sq_integral_equals_whole_array_rn_and_one_segment(profile):
    pw = to_piecewise(make_family("rn", 12, profile), LAMBDA, 3e-5)
    assert 3 * norms._BLOCK < pw.segment_count < 4 * norms._BLOCK and np.any(pw.c)
    assert norms._sq_integral(pw) == sq_integral_whole_array(pw)
    for c in (0.0, -1.0):
        one = PiecewiseHyperbolic(edges=np.array([0.25, 1.0]), b=np.array([0.5]),
                                  c=np.array([c]), a=0.3, sup_const=1.0, has_log_tail=False)
        assert norms._sq_integral(one) == sq_integral_whole_array(one)


# (sum, how _merged_jumps lays it out, or None for a dense lattice): dense
# int (sn), dense with Phi terms (gn), a 1/k sum with no theta = 1 term and
# an irregular coefficient (one merged period), the class-B U-images with a
# long double lane, tiled int (fn) and tiled long double (rn), one period
# (Q eps >= 1), a tiled theta = 1 term with an irregular coefficient, and
# the empty sum; all at eps = 1e-3
_STREAM_CASES = {
    "sn": (lambda pr: make_family("sn", 30, pr), None),
    "gn": (lambda pr: Gn(30, pr), None),
    "bn_masked": (lambda pr: BeurlingSum.make(make_family("bn", 12, pr).terms[1:]), "_slices"),
    "vn_u": (lambda pr: _u_image("vn", 10, pr), "_tile"),
    "bn_u": (lambda pr: _u_image("bn", 10, pr), "_tile"),
    "fn": (lambda pr: make_family("fn", 100, pr), "_tile"),
    "rn": (lambda pr: make_family("rn", 12, pr), "_tile"),
    "one_period": (lambda pr: make_family("fn", 1000, pr), "_slices"),
    "theta_one": (lambda pr: BeurlingSum.make([(1, 1), (-2, Fraction(1, 3)),
                                               (Fraction(1, 3), Fraction(2, 5))]), "_tile"),
    "empty": (lambda pr: make_family("vn", 1, pr), "_slices"),
}


def _same_flatten(got, want):
    for lane in ("edges", "b", "c"):
        g, w = getattr(got, lane), getattr(want, lane)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), lane
    for field in ("a", "sup_const", "drift_bound", "has_log_tail"):
        assert getattr(got, field) == getattr(want, field), field


@pytest.mark.parametrize("block", [1, 7, 128, 2 ** 15])
@pytest.mark.parametrize("case", list(_STREAM_CASES))
def test_streamed_flatten_equals_whole_array(profile, monkeypatch, block, case):
    # chunk joins anywhere (every jump at block 1) leave every bit of the
    # flatten and of the p = 2 closed form as the whole-array oracle has it
    make, layout = _STREAM_CASES[case]
    f = make(profile)
    if layout is not None:
        assert norms._merged_jumps(f.lanes, norms._NO_TERMS, 1e-3).take.func.__name__ == layout
    monkeypatch.setattr(norms, "_BLOCK", block)
    for gen in (NEG_CHI, LAMBDA, None):
        got, want = to_piecewise(f, gen, 1e-3), to_piecewise_whole(f, gen, 1e-3)
        _same_flatten(got, want)
        assert norms._sq_integral(got) == sq_integral_whole_array(want)


@pytest.mark.parametrize("family, gen", [("rn", LAMBDA), ("gn", LAMBDA), ("vn", NEG_CHI)])
def test_streamed_flatten_equals_whole_array_many_chunks(profile, family, gen):
    # a tiled long double lane, a Phi lane and an irregular dense one over
    # several chunks of _BLOCK
    f = Gn(100, profile) if family == "gn" else make_family(family, 10 if family == "rn" else 100,
                                                           profile)
    got, want = to_piecewise(f, gen, 1e-5), to_piecewise_whole(f, gen, 1e-5)
    assert got.segment_count > 3 * norms._BLOCK
    _same_flatten(got, want)


_RHO_ONLY = [case for case in _STREAM_CASES if case != "gn"]


@pytest.mark.parametrize("case", _RHO_ONLY)
def test_rho_only_flatten_shares_one_log_coefficient(profile, case):
    # no jump of a rho sum moves c, so it is the generator's c offset, held
    # once as a read-only 0-stride view, and every integrator reads it as it
    # reads a full lane: each field of each report is the same bits
    f = _STREAM_CASES[case][0](profile)
    for gen in (NEG_CHI, LAMBDA, None):
        pw = to_piecewise(f, gen, 1e-3)
        assert pw.c.strides == (0,) and not pw.c.flags.writeable, gen
        assert np.all(pw.c == norms._gen_offsets(gen)[1]), gen
        full = dataclasses.replace(pw, c=np.array(pw.c))
        if case == "sn" and gen is LAMBDA:
            # an interior critical point x = a/c, where _split concatenates c
            crit = pw.a / full.c
            assert np.any((crit > pw.lo) & (crit < pw.hi))
        if case == "rn" and gen is LAMBDA:
            # a = 0, so _split brackets roots at x = exp(-b/c) of the view's c
            assert pw.a == 0.0 and len(norms._split(pw).glo)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert dataclasses.asdict(lp_norm(pw, p)) == dataclasses.asdict(lp_norm(full, p)), \
                (gen, p)


@pytest.mark.parametrize("case", ["gn", "t_indicator", "fn_less_gn"])
def test_phi_flatten_keeps_its_log_coefficient_lane(profile, case):
    make, gen = _DRIFT_CASES[case]
    c = to_piecewise(make(profile), gen, 1e-3).c
    assert c.strides == (c.itemsize,) and c.flags.writeable and c.flags.owndata


def test_rho_only_flatten_holds_16_bytes_a_segment(profile):
    # edges and b, 8 B each a segment, and no c lane; the 4 MiB covers the
    # merged period and the O(_BLOCK) transients
    f = make_family("rn", 10, profile)
    tracemalloc.start()
    try:
        pw = to_piecewise(f, LAMBDA, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * pw.segment_count + 4 * 2 ** 20, (peak, pw.segment_count)


@pytest.mark.parametrize("extra", [1, 0])
def test_integer_state_overflow_still_raises(extra):
    # 2^30 at every 1/m, m = 2 .. 2^22 + extra: the |jumps| sum to 2^52 (the
    # streamed check raises) or to 2^30 less (the state is exact)
    f = BeurlingSum.make([(2 ** 30, 1)])
    eps = 1.0 / (2 ** 22 + extra + 0.5)
    if extra:
        for flatten in (to_piecewise, to_piecewise_whole):
            with pytest.raises(OverflowError):
                flatten(f, None, eps)
    else:
        _same_flatten(to_piecewise(f, None, eps), to_piecewise_whole(f, None, eps))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("size", [1, 127, 128, 129, norms._BLOCK - 1, norms._BLOCK + 1,
                                  10 ** 6 + 3])
def test_pairwise_sum_follows_numpy(dtype, size):
    # magnitudes over 16 decades make every rounding of the order show
    rng = np.random.default_rng(size)
    values = (rng.random(size) * 10.0 ** rng.integers(-8, 8, size)).astype(dtype)
    want = np.sum(values)
    got = norms._pairwise_sum(size, lambda i0, i1: np.sum(values[i0:i1]))
    assert got.dtype == want.dtype and got == want
    # a leaf of two lanes sums each as np.sum does on its own
    other = values[::-1] * 3.0
    lanes = norms._pairwise_sum(size, lambda i0, i1: np.array([np.sum(values[i0:i1]),
                                                               np.sum(other[i0:i1])]))
    assert lanes.dtype == dtype and lanes.tolist() == [want, np.sum(other)]


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("case", ["rn", "gn", "sn"])
def test_closed_forms_do_not_depend_on_the_leaf_size(profile, monkeypatch, case, p):
    # the p = 1 and p = 2 closed forms sum a leaf at a time in NumPy's own
    # order, so the leaf size moves no bit of the power or its bound
    f, gen = {"rn": (make_family("rn", 12, profile), LAMBDA), "gn": (Gn(100, profile), LAMBDA),
              "sn": (make_family("sn", 100, profile), NEG_CHI)}[case]
    pw = to_piecewise(f, gen, 1e-5)
    reports = []
    for block in (1, 7, 128, 2 ** 15):
        monkeypatch.setattr(norms, "_BLOCK", block)
        rep = lp_norm(pw, p)
        reports.append((rep.power_value, rep.quad_error))
    assert pw.segment_count > 3 * 2 ** 15 and len(set(reports)) == 1, reports


@pytest.mark.parametrize("eps", [1e-3, 1.0 / 1000.5])
@pytest.mark.parametrize("with_one", [True, False])
def test_dense_lattice_matches_exact(profile, monkeypatch, with_one, eps):
    # with theta = 1 every 1/m breaks and the dense lattice flattens the sum;
    # without it (sn 12 less its k = 1 term) _merged_jumps does.  At
    # eps = 1e-3 the breakpoint 1/1000 equals eps and is trimmed
    terms = make_family("sn", 12, profile).terms
    f = BeurlingSum.make(terms if with_one else tuple(t for t in terms if t[1] != 1))
    assert (f.terms[0][1] == 1) == with_one

    def refuse(*args):
        raise AssertionError("the other lattice must flatten this sum")

    monkeypatch.setattr(norms, "_merged_jumps" if with_one else "_lattice_jumps", refuse)
    pw = to_piecewise(f, NEG_CHI, eps)
    segs = to_piecewise_exact(f, NEG_CHI, Fraction(eps))
    assert pw.segment_count == len(segs)
    assert np.array_equal(pw.lo, [float(seg[0]) for seg in segs])
    assert all(Fraction(float(b)) == seg[3] and c == seg[4]
               for b, c, seg in zip(pw.b, pw.c, segs))
    assert pw.a == float(segs[0][2])


@pytest.mark.parametrize("n", [2, 10, 100])
def test_command_families_take_their_lattice(profile, monkeypatch, n):
    # every 1/k family the commands flatten has a theta = 1 term, which the
    # dense lattice needs; fn and rn past n = 2 (fn 2 is 1 - 2 rho(1/(2x)))
    # and U-images have thetas k/n
    called = []
    for name in ("_lattice_jumps", "_merged_jumps"):
        monkeypatch.setattr(norms, name, lambda *args, name=name, real=getattr(norms, name):
                            called.append(name) or real(*args))

    def path(run):
        called.clear()
        run()
        return called

    for f in [make_family(fam, n, profile) for fam in ("sn", "vn", "bn")] + [Gn(n, profile)]:
        assert path(lambda: to_piecewise(f, NEG_CHI, 1e-3)) == ["_lattice_jumps"], f
    for fam in ("fn", "rn") if n > 2 else ():
        f = make_family(fam, n, profile)
        assert path(lambda: to_piecewise(f, NEG_CHI, 1e-3)) == ["_merged_jumps"], fam
    image = apply_u(make_family("sn", 10, profile))
    assert path(lambda: u_l2_norm(image, 1e3)) == ["_merged_jumps"]


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
        s = riemann_sum_via_make(Fraction(1, 2), 1, n)
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


def test_cutoff_must_be_a_normal_double(profile):
    f = make_family("sn", 10, profile)
    for eps in (1e-310, 5e-324, 0.0):
        with pytest.raises(ValueError, match="normal double"):
            to_piecewise(f, NEG_CHI, eps)
    # the smallest normal cutoff is counted in floats: a short message,
    # and inf where the count passes the float range
    for n, count in ((100, "1.72e+308"), (1000, "inf")):
        with pytest.raises(norms.BudgetError) as exc:
            to_piecewise(make_family("sn", n, profile), NEG_CHI, sys.float_info.min)
        message = str(exc.value)
        assert message.startswith(f"{count} breakpoints exceed") and len(message) < 200


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
    assert np.allclose(values_at(pw, take), direct, atol=1e-9, rtol=0)


@given(small_sums, st.sampled_from([1.0, 2.0, 1.5, 3.0]))
@settings(max_examples=30, deadline=None)
def test_norm_nonnegative_and_certified(terms, p):
    f = BeurlingSum.make(terms)
    if not f.terms:
        return
    rep = lp_distance(f, None, p, 1e-3, include_far=False)
    assert rep.value >= 0.0
    assert rep.upper >= rep.value >= rep.lower >= 0.0


@given(small_sums, st.sampled_from([1.1, 1.5, 3.0]))
@settings(max_examples=30, deadline=None)
def test_general_p_brackets_mpmath_property(terms, p):
    f = BeurlingSum.make(terms)
    if not f.terms:
        return
    rep = lp_distance(f, NEG_CHI, p, 0.05, include_far=False)
    true = lp_power_mpmath(f, NEG_CHI, p, 0.05)
    assert abs(rep.power_value - true) <= rep.quad_error
    assert rep.lower <= true ** (1.0 / p) <= rep.upper
