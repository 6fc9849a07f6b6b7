import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nblab.arith import EXACT_LIMIT, build_profile
from nblab.beurling import (FAMILIES, BeurlingSum, LAMBDA, NEG_CHI, make_family,
                            pairwise_sum, recover_coefficients, rho, step_values)
from nblab.sieve import sieve_mobius
from oracles import family_via_make

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
    assert f.dilate(a)(x) == f(a * x)


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


def test_tail_coeff_and_sup_bound_are_the_running_sums(profile):
    for fam in FAMILIES:
        f = make_family(fam, 2000, profile)
        assert f.tail_coeff == sum((c * t for c, t in f.terms), start=Fraction(0))
        assert f.sup_bound == float(sum(abs(c) for c, _ in f.terms))


def test_family_class_membership(profile):
    for fam in ("vn", "bn", "fn", "rn"):
        f = make_family(fam, 80, profile)
        assert f.tail_coeff == 0
        assert f.is_class_c
    sn = make_family("sn", 80, profile)
    assert sn.is_class_b
    assert not sn.is_class_c
    assert sn.tail_coeff == profile.g_exact(80)


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
    # vn and bn fold a float g(n) into their slot once n passes the exact limit
    profile = build_profile(sieve_mobius(EXACT_LIMIT + 10))
    for family in FAMILIES:
        for n in (EXACT_LIMIT - 1, EXACT_LIMIT, EXACT_LIMIT + 1):
            _same_terms(make_family(family, n, profile),
                        family_via_make(family, n, profile))


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
