import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab.arith import EXACT_LIMIT, build_profile
from nblab import beurling
from nblab.beurling import (FAMILIES, BeurlingSum, LAMBDA, Lanes, NEG_CHI, make_family,
                            pairwise_sum, rho)
from nblab.sieve import sieve_mobius
from oracles import dilate, family_tuples, family_via_make, recover_coefficients, step_values

fractions_01 = st.fractions(min_value=Fraction(1, 40), max_value=1,
                            max_denominator=40)
coeffs = st.one_of(st.integers(min_value=-5, max_value=5).map(Fraction),
                   st.fractions(min_value=-3, max_value=3, max_denominator=12))
term_lists = st.lists(st.tuples(coeffs, fractions_01), min_size=0, max_size=8)


def test_rho_basics():
    assert rho(Fraction(7, 2)) == Fraction(1, 2)
    assert rho(3) == 0
    assert rho(2.25) == 0.25


def test_generators():
    assert NEG_CHI(0.5) == -1.0
    assert NEG_CHI(1.5) == 0.0
    assert LAMBDA(0.25) == math.log(0.25)
    assert LAMBDA(2.0) == 0.0


@given(term_lists)
@settings(max_examples=80, deadline=None)
def test_make_canonicalizes(terms):
    f = BeurlingSum.make(terms)
    thetas = [t for _, t in f.terms]
    assert thetas == sorted(set(thetas), reverse=True)
    assert all(c != 0 for c, _ in f.terms)
    # canonical form is reconstruction-invariant under shuffling/splitting
    split = [(c / 2, t) for c, t in terms] + [(c / 2, t) for c, t in reversed(terms)]
    assert BeurlingSum.make(split).terms == f.terms


@given(term_lists, st.fractions(min_value=Fraction(1, 30), max_value=4,
                                max_denominator=30))
@settings(max_examples=80, deadline=None)
def test_exact_and_float_eval_agree(terms, x):
    f = BeurlingSum.make(terms)
    exact = f(x)
    # float path only matches away from the dilation lattice discontinuities
    if any((t / x).denominator == 1 for _, t in f.terms):
        return
    assert math.isclose(float(exact), f(float(x)), rel_tol=0, abs_tol=1e-9)


@given(term_lists, st.fractions(min_value=Fraction(1, 8), max_value=8,
                                max_denominator=8),
       st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=10))
@settings(max_examples=60, deadline=None)
def test_dilation_action(terms, a, x):
    f = BeurlingSum.make(terms)
    assert dilate(f, a)(x) == f(a * x)


def test_sup_bound(profile):
    f = make_family("sn", 30, profile)
    bound = f.sup_bound
    for j in range(1, 200):
        assert abs(f(j / 200 + 1e-4)) <= bound + 1e-12


def test_tail_behavior(profile):
    f = make_family("sn", 10, profile)
    for x in (Fraction(3, 2), Fraction(5), Fraction(100)):
        assert f(x) == f.tail_coeff / x


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 8, 1001])
def test_pairwise_sum_is_the_running_sum(count):
    values = [Fraction(k % 7 - 3, k) for k in range(1, count + 1)]
    assert pairwise_sum(values) == sum(values, start=Fraction(0))
    # with a float among them both sums round, each within n eps of the total
    if count:
        mixed = [0.1] + values
        exact = sum((Fraction(v) for v in mixed), start=Fraction(0))
        scale = len(mixed) * 2.0 ** -52 * float(sum(abs(Fraction(v)) for v in mixed))
        for total in (pairwise_sum(mixed), sum(mixed, start=Fraction(0))):
            assert abs(Fraction(total) - exact) <= scale


def _least_double_at_or_above(d: float, exact: Fraction) -> bool:
    return Fraction(d) >= exact > Fraction(math.nextafter(d, -math.inf))


def test_tail_coeff_and_sup_bound_are_the_running_sums(profile):
    for fam in FAMILIES:
        f = make_family(fam, 2000, profile)
        assert f.tail_coeff == sum((c * t for c, t in f.terms), start=Fraction(0))
        assert _least_double_at_or_above(f.sup_bound, sum(abs(c) for c, _ in f.terms))


@pytest.fixture(scope="module")
def profile_3e4():
    return build_profile(sieve_mobius(3 * 10 ** 4))


@pytest.mark.parametrize("family, n", [("vn", 100), ("vn", 29989), ("bn", 10), ("bn", 100),
                                       ("rn", 10), ("rn", 47)])
def test_sup_bound_is_not_below_the_sum(profile_3e4, family, n):
    # the sum rounded to nearest lies below the exact sum |c_k| at these n
    f = make_family(family, n, profile_3e4)
    exact = sum((abs(Fraction(c)) for c in f.lanes.coefficients()), start=Fraction(0))
    assert Fraction(float(exact)) < exact
    assert _least_double_at_or_above(f.sup_bound, exact)


def test_family_class_membership(profile):
    for fam in ("vn", "bn", "fn", "rn"):
        f = make_family(fam, 80, profile)
        assert f.tail_coeff == 0
        assert all(f.lanes.num <= f.lanes.den)
    sn = make_family("sn", 80, profile)
    assert all(sn.lanes.num <= sn.lanes.den)
    assert sn.tail_coeff == profile.g_exact(80) != 0


def test_bn_is_minus_one_inside(profile):
    for n in (10, 100):
        f = make_family("bn", n, profile)
        for j in range(1, 21):
            x = Fraction(1, n) + Fraction(j, 21) * (1 - Fraction(1, n))
            assert f(x) == -1
        # at the left endpoint the integer-lattice convention shifts the value
        assert f(Fraction(1, n)) == -1 + n * profile.g_exact(n)


def test_sn_at_one(profile):
    for n in (1, 2, 10, 137, 1000):
        assert make_family("sn", n, profile)(Fraction(1)) == \
            profile.g_exact(n) - 1


def test_vn_bn_shift_identities(profile):
    n = 60
    sn = make_family("sn", n, profile)
    vn = make_family("vn", n, profile)
    g = profile.g_exact(n)
    for x in (Fraction(2, 7), Fraction(3, 5), Fraction(9, 8)):
        assert vn(x) == sn(x) - g * rho(1 / x)


def _same_terms(got, want):
    assert got.terms == want.terms
    assert [type(c) for c, _ in got.terms] == [type(c) for c, _ in want.terms]
    assert all(type(t) is Fraction for _, t in got.terms)


def test_families_match_make_oracle(profile):
    # the builders emit canonical terms themselves; make is the reference
    for family in FAMILIES:
        for n in [*range(1, 201), *range(997, 1001)]:
            _same_terms(make_family(family, n, profile),
                        family_via_make(family, n, profile))


def test_families_match_make_oracle_beyond_exact_limit():
    # vn and bn fold the exact value of the float g(n) into their slot once n
    # passes the exact limit
    profile = build_profile(sieve_mobius(EXACT_LIMIT + 10))
    for family in FAMILIES:
        for n in (EXACT_LIMIT - 1, EXACT_LIMIT, EXACT_LIMIT + 1):
            _same_terms(make_family(family, n, profile),
                        family_via_make(family, n, profile))


def test_sums_past_exact_limit_are_exact(profile_3e4):
    # the folded g(n) is a dyadic Fraction, so the tail coefficient and the
    # sup bound are exact sums rounded once, the sup bound upward (a float
    # sum put a at -1.6e-19 for bn 25000, whose exact value is +8.5e-20)
    for family, n in (("vn", 20000), ("vn", 29989), ("bn", 20000), ("bn", 25000)):
        f = make_family(family, n, profile_3e4)
        lanes = f.lanes
        assert lanes.irregular and all(type(c) is Fraction for c in lanes.irregular.values())
        assert lanes.tail_float() == float(lanes.tail_exact())
        exact_abs = sum((abs(Fraction(c)) for c in lanes.coefficients()), start=Fraction(0))
        assert _least_double_at_or_above(f.sup_bound, exact_abs)


def test_empty_families(profile):
    assert make_family("fn", 1, profile).terms == ()
    assert make_family("rn", 1, profile).terms == ()


def test_family_validation(profile):
    with pytest.raises(ValueError):
        make_family("zz", 5, profile)
    with pytest.raises(ValueError):
        make_family("sn", 0, profile)
    with pytest.raises(ValueError):
        make_family("sn", profile.limit + 1, profile)


def test_recover_vn_coefficients(profile):
    n = 500
    vn = make_family("vn", n, profile)
    coeffs = recover_coefficients(step_values(vn, n))
    # positions 2..n reproduce the Moebius coefficients exactly; position 1
    # carries the vanishing correction 1 - g(n) by construction
    assert coeffs[0] == 1 - profile.g_exact(n)
    assert coeffs[1:] == [Fraction(profile.mu(j)) for j in range(2, n + 1)]
    assert abs(coeffs[0] - 1) == abs(profile.g_exact(n)) < Fraction(1, 50)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1,
                max_size=20))
@settings(max_examples=50, deadline=None)
def test_recover_arbitrary_unit_coeffs(cs):
    f = BeurlingSum.make([(Fraction(c), Fraction(1, k + 1))
                          for k, c in enumerate(cs)])
    vals = [-sum(Fraction(c) * (j // (k + 1)) for k, c in enumerate(cs))
            for j in range(1, len(cs) + 1)]
    assert recover_coefficients(vals) == [Fraction(c) for c in cs]
    del f


def test_call_rejects_nonpositive(profile):
    f = make_family("sn", 3, profile)
    with pytest.raises(ValueError):
        f(0)


@pytest.fixture(scope="module")
def wide_profile():
    return build_profile(sieve_mobius(EXACT_LIMIT + 10))


def test_derived_terms_match_tuple_oracle(wide_profile):
    for family in FAMILIES:
        for n in (1, 2, 97, 1000, EXACT_LIMIT, EXACT_LIMIT + 1):
            got = make_family(family, n, wide_profile).terms
            want = family_tuples(family, n, wide_profile)
            assert got == want, (family, n)
            assert [type(c) for c, _ in got] == [type(c) for c, _ in want]
            assert all(type(t) is Fraction for _, t in got)


# wide values reach the Python-int lanes: coefficients past the int64 lane,
# thetas past exact doubles
wide_coeffs = st.one_of(coeffs, st.integers(min_value=-2 ** 40, max_value=2 ** 40),
                        st.fractions(min_value=-2 ** 40, max_value=2 ** 40,
                                     max_denominator=2 ** 40))
wide_thetas = st.one_of(fractions_01, st.fractions(min_value=Fraction(1, 2 ** 60),
                                                   max_value=1, max_denominator=2 ** 60))


@given(st.lists(st.tuples(wide_coeffs, wide_thetas), max_size=8))
@settings(max_examples=80, deadline=None)
def test_make_round_trips_through_lanes(terms):
    f = BeurlingSum.make(terms)
    merged = {}
    for c, t in terms:
        merged[t] = merged.get(t, 0) + Fraction(c)
    want = tuple((c, t) for t, c in sorted(merged.items(), reverse=True) if c)
    # terms is derived from the lanes
    assert f.terms == want
    assert all(type(c) is Fraction and type(t) is Fraction for c, t in f.terms)


@given(st.lists(st.tuples(st.one_of(wide_coeffs, st.floats(min_value=-3, max_value=3)),
                          st.one_of(wide_thetas, st.fractions(min_value=1, max_value=2 ** 20,
                                                              max_denominator=64))),
                max_size=12))
@settings(max_examples=150, deadline=None)
def test_tail_float_is_the_pairwise_sum(terms):
    lanes = Lanes.of_terms([(c, Fraction(t)) for c, t in terms])
    want = float(pairwise_sum(Fraction(c) * Fraction(t) for c, t in terms))
    assert lanes.tail_float() == want
    # the fixed-point sum, where the lanes take it, is the exact floor sum
    if (s := lanes._scaled_floor_sum()) is not None:
        bits = beurling._TAIL_BITS
        assert s == sum(math.floor(Fraction(c) * t * 2 ** bits) for c, t in terms)


def _counting_pairwise(monkeypatch):
    calls = []

    def counted(values):
        calls.append(1)
        return pairwise_sum(values)

    monkeypatch.setattr(beurling, "pairwise_sum", counted)
    return calls


def test_tail_float_is_exactly_zero_for_class_c(wide_profile, monkeypatch):
    calls = _counting_pairwise(monkeypatch)
    for family in ("vn", "bn"):
        for n in (10, 1000, EXACT_LIMIT):
            assert make_family(family, n, wide_profile).lanes.tail_float() == 0.0
    assert len(calls) == 6          # an exact zero always takes the rational sum
    del calls[:]
    sn = make_family("sn", EXACT_LIMIT, wide_profile)
    assert sn.lanes.tail_float() == float(wide_profile.g_exact(EXACT_LIMIT))
    assert calls == []              # the fixed-point test rounds g(n) itself


@pytest.mark.parametrize("terms,even", [
    # 1 + 2^-53: the theta denominator passes 2^32, so no fixed-point test
    ([(1, Fraction(1)), (1, Fraction(1, 2 ** 53))], 1.0),
    # 2^53 + 1, on the int64 lanes
    ([(2 ** 30, Fraction(2 ** 23)), (1, Fraction(1))], 2.0 ** 53),
])
def test_tail_float_midpoint_takes_the_rational_sum(terms, even, monkeypatch):
    calls = _counting_pairwise(monkeypatch)
    exact = sum((c * t for c, t in terms), start=Fraction(0))
    assert exact - Fraction(even) == Fraction(math.ulp(even)) / 2   # halfway to odd
    assert Lanes.of_terms(terms).tail_float() == even
    assert calls == [1]
