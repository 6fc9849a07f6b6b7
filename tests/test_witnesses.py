import math

import pytest

from nblab.beurling import LAMBDA, NEG_CHI
from nblab.norms import NormReport
from nblab.witnesses import (make_target, witness, witness_gn, witness_rn_measured,
                             witness_sn_hurdle, witness_sn_l2_max)
from oracles import TrendRow, TrendTable, convergence_trend


def test_sn_hurdle_p2(profile):
    for n in (10, 100, 1000):
        rep = witness_sn_hurdle(n, 2.0, profile)
        assert rep.theorem_backed and rep.satisfied
        assert rep.lhs.lower >= rep.rhs
        assert math.isclose(rep.rhs, abs(profile.g(n)) * math.sqrt(n),
                            rel_tol=1e-12)


def test_sn_hurdle_general_p(profile):
    rep = witness_sn_hurdle(100, 1.5, profile)
    assert rep.satisfied and rep.margin > 0
    want = 0.5 ** (-1 / 1.5) * 100 ** (1 / 3) * abs(profile.g(100))
    assert math.isclose(rep.rhs, want, rel_tol=1e-12)


def test_sn_l2_max(profile):
    rep = witness_sn_l2_max(100, profile)
    assert rep.satisfied
    r_g, r_head = rep.components
    assert rep.rhs == max(r_g, r_head)
    assert rep.lhs.lower >= abs(profile.g(100)) * 10.0
    assert r_head > 0.0


def test_sn_l2_max_small(profile):
    rep = witness_sn_l2_max(1, profile)
    assert rep.satisfied and rep.family == "sn" and rep.n == 1


def test_gn_witness(profile):
    for n in (10, 100, 1000):
        rep = witness_gn(n, 2.0, profile)
        assert rep.theorem_backed and rep.satisfied
        assert rep.lhs.lower >= rep.rhs
        gamma_comp, chain = rep.components
        assert gamma_comp == rep.rhs
        assert math.isclose(chain, abs(profile.hp(n)) / math.sqrt(n),
                            rel_tol=1e-14)


def test_gn_witness_general_p(profile):
    rep = witness_gn(100, 1.5, profile)
    assert rep.satisfied
    assert rep.components == ()


def test_rn_measured(profile):
    rows = [witness_rn_measured(n, profile, eps=1e-4) for n in (10, 100)]
    assert all(not r.theorem_backed for r in rows)
    assert all(r.rhs == 0.0 and r.satisfied for r in rows)


@pytest.mark.parametrize("family,p,anchor", [
    ("sn", 2.0, "sn_l2_head"), ("sn", 1.5, "sn_lp_lower"),
    ("gn", 3.0, "gn_lp_lower"), ("rn", 2.0, "rn_l2_measured")])
def test_witness_dispatch(profile, family, p, anchor):
    rep = witness(family, 10, p, profile, 1e-3)
    assert (rep.anchor, rep.family, rep.n, rep.p) == (anchor, family, 10, p)
    assert rep.satisfied


def test_witness_rejects_what_no_witness_answers(profile):
    with pytest.raises(ValueError, match="p must be 2"):
        witness("rn", 10, 3.0, profile, 1e-3)
    with pytest.raises(ValueError, match="p must be > 1"):
        witness("sn", 10, 1.0, profile, 1e-3)
    with pytest.raises(ValueError, match="no witness"):
        witness("vn", 10, 2.0, profile, 1e-3)


def _report(v, e):
    # direct construction with symmetric certified width e in norm units
    return NormReport(p=2.0, value=v, tail_low=(2 * v * e + e * e),
                      quad_error=(2 * v * e - e * e) if v > e else 0.0,
                      tail_high=0.0, segments=1, far_tail=0.0,
                      power_value=v * v)


def test_trend_table_logic():
    rows = tuple(TrendRow(n, _report(v, 1e-6), 0.0)
                 for n, v in ((10, 3.0), (100, 2.0), (1000, 1.0)))
    t = TrendTable("bn", 1.0, rows)
    assert t.decreasing(3)
    rows2 = tuple(TrendRow(n, _report(v, 1e-6), 0.0)
                  for n, v in ((10, 1.0), (100, 2.0), (1000, 3.0)))
    t2 = TrendTable("sn", 2.0, rows2)
    assert not t2.decreasing(3)
    assert not TrendTable("x", 1.0, rows[:1]).decreasing()


def test_trend_not_fooled_by_overlap():
    rows = tuple(TrendRow(n, _report(v, 0.5), 0.0)
                 for n, v in ((10, 1.2), (100, 1.1), (1000, 1.0)))
    assert not TrendTable("bn", 1.0, rows).decreasing(3)


def test_trend_not_fooled_by_overflow(profile):
    # G_10's 2000th power passes the float range; the row then bounds the
    # norm below by 0, not inf, so no later row can be certified below it
    over = convergence_trend("gn", LAMBDA, 2000.0, (10,), profile, eps=0.02).rows
    tail = (TrendRow(100, _report(1.0, 1e-6), 0.0),)
    assert not TrendTable("gn", 2000.0, over + tail).decreasing(2)


def test_bn_l1_trend(profile):
    t = convergence_trend("bn", NEG_CHI, 1.0, (10, 100, 1000), profile)
    assert t.decreasing(3)
    assert [r.n for r in t.rows] == [10, 100, 1000]


def test_gn_l1_trend(profile):
    t = convergence_trend("gn", LAMBDA, 1.0, (10, 100, 1000), profile)
    assert t.decreasing(3)


def test_sn_l2_nonvanishing(profile):
    t = convergence_trend("sn", NEG_CHI, 2.0, (10, 100, 1000), profile)
    floor_bound = min(abs(profile.g(n)) * math.sqrt(n) for n in (10, 100, 1000))
    assert all(r.report.lower >= floor_bound for r in t.rows)


def test_fn_pointwise_tends_to_minus_one(profile):
    for x in (0.3, 0.7):
        vals = [float(make_target("fn", n, profile)(x)) for n in (10, 100, 1000)]
        assert abs(vals[-1] + 1.0) <= abs(vals[0] + 1.0) + 1e-12
        assert abs(vals[-1] + 1.0) < 1e-9


def test_make_target_and_validation(profile):
    from nblab.transform import Gn
    assert isinstance(make_target("gn", 5, profile), Gn)
    with pytest.raises(ValueError):
        convergence_trend("zz", NEG_CHI, 1.0, (10,), profile)
