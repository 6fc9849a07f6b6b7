import math

import pytest
from scipy.special import zeta as scipy_zeta

from nblab.arith import CHUNK, build_profile
from nblab.mellin import mellin_numeric, mellin_reference
from nblab.sieve import sieve_mobius

from oracles import mellin_whole_array


@pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 7.5, 12.0])
def test_zeta_against_scipy(s):
    # every kernel's reference against its closed form in scipy's Hurwitz zeta(s, 1)
    assert math.isclose(mellin_reference("M", s), 1 / (s * scipy_zeta(s, 1)), rel_tol=1e-14)
    assert math.isclose(mellin_reference("xg", s),
                        1 / ((s - 1) * scipy_zeta(s, 1)), rel_tol=1e-14)
    assert math.isclose(mellin_reference("hp", s + 1 / 3, 3.0),
                        1 / ((s + 1 / 3) * s * scipy_zeta(s, 1)), rel_tol=1e-14)
    assert type(mellin_reference("M", s)) is float


def test_zeta_known_closed_forms():
    # zeta(2) = pi^2/6 and zeta(4) = pi^4/90
    assert math.isclose(mellin_reference("M", 2.0), 3 / math.pi ** 2, rel_tol=1e-14)
    assert math.isclose(mellin_reference("M", 4.0), 90 / (4 * math.pi ** 4), rel_tol=1e-14)


def test_zeta_requires_s_above_one():
    for kernel, s, p in (("M", 1.0, 2.0), ("xg", 0.5, 2.0), ("hp", 4 / 3, 3.0)):
        with pytest.raises(ValueError):
            mellin_reference(kernel, s, p)


@pytest.fixture(scope="module")
def big_table():
    return sieve_mobius(10 ** 5)


def test_mertens_kernel_at_s2(big_table):
    res = mellin_numeric(big_table, "M", 2.0, 10 ** 5)
    ref = 3.0 / math.pi ** 2
    assert abs(res.value - ref) <= res.tail_bound
    assert type(res.value) is float


def test_xg_kernel_at_s2(big_table):
    res = mellin_numeric(big_table, "xg", 2.0, 10 ** 5)
    assert abs(res.value - 6.0 / math.pi ** 2) <= res.tail_bound


def test_hp_kernel_p2(big_table):
    res = mellin_numeric(big_table, "hp", 2.5, 10 ** 4)
    ref = mellin_reference("hp", 2.5, 2.0)
    assert abs(res.value - ref) <= res.tail_bound


def test_hp_kernel_general_p(big_table):
    res = mellin_numeric(big_table, "hp", 3.0, 10 ** 4, p=1.5)
    ref = mellin_reference("hp", 3.0, 1.5)
    assert abs(res.value - ref) <= res.tail_bound


def test_cutoff_monotonicity(big_table):
    ref = 3.0 / math.pi ** 2
    diffs = [abs(mellin_numeric(big_table, "M", 2.0, t).value - ref)
             for t in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert diffs[2] < diffs[0]


def test_piecewise_exactness_tiny():
    # cutoff 2 integrates M = 1 on [1, 2): integral_1^2 x^(-s-1) dx
    table = sieve_mobius(10)
    res = mellin_numeric(table, "M", 2.0, 2)
    assert math.isclose(res.value, (1 - 2.0 ** -2) / 2.0, rel_tol=1e-14)


def test_domain_validation(big_table):
    with pytest.raises(ValueError):
        mellin_numeric(big_table, "M", 1.0, 100)
    with pytest.raises(ValueError):
        mellin_numeric(big_table, "nope", 2.0, 100)
    with pytest.raises(ValueError):
        mellin_numeric(big_table, "M", 2.0, 10 ** 7)


@pytest.fixture(scope="module")
def chunks_table():
    return sieve_mobius(3 * CHUNK + 77)


@pytest.fixture(scope="module")
def chunks_profile(chunks_table):
    return build_profile(chunks_table)


@pytest.mark.parametrize("kernel,p", [("M", 2.0), ("xg", 2.0), ("hp", 2.0), ("hp", 1.5)])
@pytest.mark.parametrize("s", [2.5])
@pytest.mark.parametrize("cutoff", [3 * CHUNK + 78, 2])
def test_chunked_sum_matches_whole_array(chunks_table, chunks_profile, kernel, p, s, cutoff):
    got = mellin_numeric(chunks_table, kernel, s, cutoff, p).value
    ref = mellin_whole_array(chunks_profile, kernel, s, cutoff, p)
    assert abs(got - ref) <= 1e-13 * abs(ref)
