"""log Gamma, the functional-equation gamma ratio g_a, Barnes G."""

import math
from math import factorial

import numpy as np
import pytest

from tauvar.specfun import barnes_g, gamma_ratio, log_gamma
from tauvar.verify import _stirling_log_gamma

# frozen mpmath.loggamma references (40 digits)
LG_LARGE = complex(12376679.82274329919842, 13947481.91894257170304)  # s = 1e6 + 1e6 i
LG_MED = complex(0.7853469580738223887584, 2.583012925115262248591)  # s = 3.7 + 2.1 i
TWO_SQRT_PI = 3.5449077018110320546


def test_log_gamma_classical_values():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == 0.0
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_log_gamma_reference_points():
    assert abs(log_gamma(complex(3.7, 2.1)) - LG_MED) < 1e-12 * abs(LG_MED)
    assert abs(log_gamma(complex(1e6, 1e6)) - LG_LARGE) < 1e-12 * abs(LG_LARGE)


def test_log_gamma_recurrence():
    s = complex(3.7, 2.1)
    assert abs(log_gamma(s + 1) - log_gamma(s) - np.log(s)) < 1e-12


def test_log_gamma_rejects_poles():
    for s in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            log_gamma(s)
    log_gamma(-0.5)  # not a pole


def test_stirling_oracle_agreement():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = complex(1.0 + 2.0 * rng.random(), float(rng.uniform(-100, 100)))
        ref = _stirling_log_gamma(s)
        assert abs(log_gamma(s) - ref) / max(abs(ref), 1.0) < 1e-11


def test_gamma_factor_critical_line_unimodular():
    t = np.array([0.0, 1.0, 5.0, 20.0, 600.0])
    for a in (0, 1):
        g = gamma_ratio(0.5 + 1j * t, a)
        assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-11
        assert np.max(np.abs(np.abs(g**3) - 1.0)) < 1e-11
        for ti, gi in zip(t, g):  # scalar and array calls agree
            assert gamma_ratio(complex(0.5, ti), a) == gi


def test_gamma_factor_exact_point():
    # s = 2, a = 0: Gamma(-1/2) / Gamma(1) = -2 sqrt(pi)
    assert abs(abs(gamma_ratio(2.0, 0)) - TWO_SQRT_PI) < 1e-13 * TWO_SQRT_PI


def test_gamma_factor_pole_proximity_rejected():
    # (1 - s + a)/2 = -1 when s = 3: reject s within 1e-8 of it
    for s in (3.0 + 1e-9, 3.0 - 1e-9):
        with pytest.raises(ValueError, match="pole"):
            gamma_ratio(s, 0)
    with pytest.raises(ValueError, match="pole"):
        gamma_ratio(np.array([2.0, 3.0 + 1e-9]), 0)
    gamma_ratio(3.0 + 1e-6, 0)  # outside the guard radius


def test_gamma_factor_rejects_bad_parity():
    with pytest.raises(ValueError, match="parity"):
        gamma_ratio(2.0, 2)


def test_barnes_g_values():
    assert barnes_g(1) == 1 and barnes_g(2) == 1
    assert barnes_g(3) == 1  # 1!
    assert barnes_g(4) == 2  # 2! 1!
    assert barnes_g(5) == 12  # 3! 2! 1!
    assert barnes_g(6) == 288
    # a numpy integer is an integer, as everywhere else in the package
    assert barnes_g(np.int64(4)) == 2 and barnes_g(np.int64(5)) == 12
    with pytest.raises(ValueError):
        barnes_g(0)
    with pytest.raises(ValueError):
        barnes_g(31)


def test_barnes_g_divides_gamma_denominators():
    for k in range(1, 9):
        assert factorial(k * k - 1) % barnes_g(k + 1) ** 2 == 0
