"""nblab.special against mpmath at 40 digits: every returned bound encloses
the exact value of the function at the float arguments, and is as tight as
its docstring says."""

import math

import mpmath
import numpy as np
import pytest

from nblab.special import gamma_upper, log_factorial, log_gamma_upper, si, zeta

U = 2.0 ** -53


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


@pytest.mark.parametrize("p", [1.0, 1.1, 1.5, 2.0, 3.0, 10.0, 30.5, 100.0, 300.0, 301.0])
@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-5, 1e-20, 1e-100, 1e-300])
def test_gamma_upper_encloses(p, eps):
    # Gamma(p+1, -log eps), the near-zero log integral: eps = 0.5 takes the
    # lower-gamma series at every p, 1e-300 the continued fraction
    a, x = p + 1.0, -math.log(eps)
    true = mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x))
    log_bound = log_gamma_upper(a, x)
    gap = mpmath.mpf(log_bound) - mpmath.log(true)
    z = max(a, 16.0)
    assert 0 <= gap < 2.0 ** -44 * (a * abs(math.log(x)) + x + z * math.log(z))
    if log_bound < 709.0:
        assert gamma_upper(a, x) >= true
    else:
        with pytest.raises(OverflowError):
            gamma_upper(a, x)


def test_gamma_upper_log_form_of_lambda_300():
    # the log form _near_zero_tail takes for sn10 - lambda at p = 300,
    # eps = 0.02 (test_near_zero_tail_past_float_range), where Gamma(301, L)
    # is about 1e612
    a, x = 301.0, -math.log(0.02)
    with pytest.raises(OverflowError):
        gamma_upper(a, x)
    true = mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x)))
    assert 0 <= mpmath.mpf(log_gamma_upper(a, x)) - true < 1e-11


def test_gamma_upper_closed_form():
    # Gamma(2, x) = (x + 1) e^-x on both sides of the switch at x = a + 1
    for x in (0.7, 2.9, 3.1, 50.0):
        true = (mpmath.mpf(x) + 1) * mpmath.exp(-mpmath.mpf(x))
        assert true <= gamma_upper(2.0, x) <= true * (1 + 1e-12)


def test_gamma_upper_rejects_outside_domain():
    for a, x in ((0.5, 1.0), (2.0, 0.0), (2.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            log_gamma_upper(a, x)


@pytest.mark.parametrize("z", [1e-12, 1e-3, 0.5, 1.0, 2.0, math.pi, 5.0, 2 * math.pi, 9.0,
                               11.5, 4 * math.pi]
                         + [c * math.pi / n for c in (2, 4) for n in (2, 3, 10, 100, 1000, 10**4)])
def test_si_encloses(z):
    value, bound = si(z)
    true = mpmath.si(mpmath.mpf(z))
    assert abs(mpmath.mpf(value) - true) <= bound
    assert bound <= math.ulp(value) / 2 + 2.0 ** -79 * abs(value)


def test_si_rejects_outside_domain():
    for z in (0.0, -1.0, math.nextafter(4 * math.pi, math.inf), math.nan):
        with pytest.raises(ValueError):
            si(z)


def test_log_factorial_arrays():
    # the table below 16, Stirling's series from 16 on, one array at a time
    m = np.concatenate([np.arange(0, 40), [99, 100, 1000, 12345, 10**6, 10**9 + 7,
                                           10**12, 2**52]]).astype(np.float64)
    out = log_factorial(m)
    assert out.shape == m.shape and out.dtype == np.float64
    for mi, v in zip(m.tolist(), out.tolist()):
        true = mpmath.loggamma(mpmath.mpf(mi) + 1)
        assert abs(mpmath.mpf(v) - true) <= 2.0 ** -50 * max(1, true)
    assert np.array_equal(log_factorial(m.reshape(2, -1)), out.reshape(2, -1))


@pytest.mark.parametrize("s", [1 + 1e-6, 1.0001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3,
                               12.0, 20.0, 33.3, 50.0, 60.0])
def test_zeta_encloses(s):
    value, bound = zeta(s)
    true = mpmath.zeta(mpmath.mpf(s))
    assert abs(mpmath.mpf(value) - true) <= bound <= 8 * U * value


def test_zeta_rejects_outside_domain():
    for s in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            zeta(s)
