import math
from fractions import Fraction

import numpy as np
import pytest

from nblab import arith
from nblab.arith import CHUNK, EXACT_LIMIT, build_profile, floor_sum_check, lane_chunks
from nblab.sieve import sieve_mobius

from oracles import whole_array_lanes


def test_g_decomposition_exact(profile):
    for n in range(1, min(profile.limit, EXACT_LIMIT) + 1):
        assert profile.g_exact(n) == (Fraction(profile.M(n), n)
                                      + profile.gamma_exact(n))


def test_gamma_matches_piecewise_integral(profile):
    # integral_1^n M(t) t^-2 dt = sum_{k<n} M(k) (1/k - 1/(k+1)), exactly
    acc = Fraction(0)
    for k in range(1, 400):
        acc += profile.M(k) * (Fraction(1, k) - Fraction(1, k + 1))
        assert acc == profile.gamma_exact(k + 1)


def test_float_lanes_match_exact(profile):
    for n in (1, 2, 17, 500, 2000):
        assert math.isclose(profile.g(n), float(profile.g_exact(n)),
                            rel_tol=0, abs_tol=1e-14)
        assert math.isclose(profile.gamma(n), float(profile.gamma_exact(n)),
                            rel_tol=0, abs_tol=1e-14)


def test_h2_is_mertens_log_sum(profile):
    # p = 2 accumulation: H_2(n) = sum_{k<n} M(k) log((k+1)/k)
    for n in (2, 10, 100, 1000):
        oracle = math.fsum(profile.M(k) * math.log((k + 1) / k)
                           for k in range(1, n))
        assert math.isclose(profile.hp(n), oracle, rel_tol=1e-13, abs_tol=1e-13)


def test_hp_general_p_against_quadrature(profile):
    import scipy.integrate as si
    p = 1.5
    n = 50
    oracle = sum(si.quad(lambda t: profile.M(math.floor(t)) * t ** (-2.0 / p),
                         k, k + 1)[0] for k in range(1, n))
    assert math.isclose(profile.hp(n, p=p), oracle, rel_tol=1e-9)


def test_hp_trivial_start(profile):
    assert profile.hp(1) == 0.0
    assert profile.gamma(1) == 0.0
    assert profile.g_exact(1) == 1


def test_floor_sum_check(profile):
    assert floor_sum_check(profile, 2000)


def test_floor_sum_oracle_small(profile):
    # direct evaluation of sum mu(k) floor(j/k) for tiny j
    for j in range(1, 60):
        assert sum(profile.mu(k) * (j // k) for k in range(1, j + 1)) == 1


def test_range_validation(profile):
    with pytest.raises(ValueError):
        profile.M(0)
    with pytest.raises(ValueError):
        profile.g_exact(min(profile.limit, EXACT_LIMIT) + 1)


def test_hp_values_rejects_bad_p(profile):
    with pytest.raises(ValueError):
        profile.hp_values(1.0, 10)


def test_chunked_lanes_equal_whole_array():
    # three full chunks plus a ragged end: the carry between chunks must
    # round exactly as one cumsum over the whole range does
    table = sieve_mobius(3 * CHUNK + 123)
    prof = build_profile(table)
    ref = whole_array_lanes(table.mu_array(), 3000, ps=(2.0, 1.5, 3.0))
    assert np.array_equal(prof.g_float, ref["g"])
    assert np.array_equal(prof.gamma_float, ref["gamma"])
    for p, hp in ref["hp"].items():
        assert np.array_equal(prof.hp_values(p, prof.limit), hp)
    assert [prof.g_exact(n) for n in range(1, 3001)] == ref["g_exact"]
    assert [prof.gamma_exact(n) for n in range(1, 3001)] == ref["gamma_exact"]


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_lane_chunks_equal_profile_lanes(p):
    # the lanes streamed from the packed table, chunk by chunk, which the
    # profile lays end to end, are the whole-array lanes bit for bit, across
    # three carries and a ragged end
    table = sieve_mobius(3 * CHUNK + 77)
    mu = table.mu_array()
    ref = whole_array_lanes(mu, 0, ps=(p,))

    def lane(name):
        chunks = list(lane_chunks(table, table.limit, name, p))
        assert [lo for lo, _, _ in chunks] == [0, CHUNK, 2 * CHUNK, 3 * CHUNK]
        assert np.array_equal(np.concatenate([m for _, m, _ in chunks]),
                              np.cumsum(mu, dtype=np.int64))
        return np.concatenate([v for _, _, v in chunks])

    assert np.array_equal(lane("g"), ref["g"])
    assert np.array_equal(lane("gamma"), ref["gamma"])
    assert np.array_equal(lane("hp"), ref["hp"][p])
    assert all(v is None for _, _, v in lane_chunks(table, 5, None))
    with pytest.raises(ValueError):
        next(lane_chunks(table, table.limit + 1))
    with pytest.raises(ValueError, match="lane must be"):
        next(lane_chunks(table, 5, "h2"))


def test_profile_lanes_are_one_lane_chunks_stream(monkeypatch):
    # each float lane of the profile is one pass of lane_chunks, laid end
    # to end, and no second loop of its own
    prof = build_profile(sieve_mobius(2 * CHUNK + 5))
    calls = []
    stream = arith.lane_chunks

    def recording(table, upto, lane=None, p=2.0):
        calls.append((lane, upto, p))
        return stream(table, upto, lane, p)

    monkeypatch.setattr(arith, "lane_chunks", recording)
    prof.g_float
    prof.gamma_float
    prof.hp_values(1.5, prof.limit)
    assert calls == [("g", prof.limit, 2.0), ("gamma", prof.limit, 2.0),
                     ("hp", prof.limit, 1.5)]


@pytest.fixture(scope="module")
def million_profile():
    return build_profile(sieve_mobius(10**6))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_hp_general_p_summation_by_parts(million_profile, p):
    # sum_{k<n} M(k)((k+1)^e - k^e) = M(n-1) n^e - sum_{k<n} mu(k) k^e
    n = 10**6
    e = 1.0 - 2.0 / p
    ks = np.arange(1, n, dtype=np.float64)
    tail = math.fsum((million_profile.mu_values[:n - 1] * ks ** e).tolist())
    oracle = (million_profile.M(n - 1) * n ** e - tail) / e
    assert math.isclose(million_profile.hp(n, p), oracle, rel_tol=1e-13)


def test_build_profile_rejects_limit_beyond_int32():
    class Table:
        limit = 2**31

        def mu_array(self):
            raise AssertionError("mu_array read before the limit was checked")

    with pytest.raises(ValueError, match="below 2\\^31"):
        build_profile(Table())
