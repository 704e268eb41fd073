"""Euler-product constants, gamma_k evaluators, moment identities."""

import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from tauvar.constants import (
    GAMMA3_PIECEWISE,
    a_k_d,
    a_k_value,
    convolution_compare,
    g_k,
    gamma_3_piecewise,
    gamma_integral_check,
    gamma_k_mc,
    gamma_k_simple,
    local_factor,
    local_factor_series,
)


def test_local_factor_examples():
    assert local_factor(2, 2, exact=True) == 12  # (1-1/2)^-3 (1 + 1/2)
    assert local_factor(2, 3, exact=True) == Fraction(9, 2)
    for p in (2, 3, 5, 101):
        assert abs(local_factor(1, p) - 1.0 / (1.0 - 1.0 / p)) < 1e-15


def test_local_factor_rejects_composite():
    with pytest.raises(ValueError, match="not prime"):
        local_factor(2, 6)
    with pytest.raises(ValueError):
        local_factor_series(2, 9)


def test_local_factor_vs_series():
    # the closed form against the direct series, at and off the point s = 1
    for k in range(2, 7):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            for s in (1.0, 2.0):
                closed = local_factor(k, p, s)
                series = local_factor_series(k, p, s)
                assert abs(closed - series) / series < 1e-12


def test_a_k_value_k1_exact():
    v = a_k_value(1, 10**4)
    assert v.value == 1.0 and v.error_estimate == 0.0


def test_a_2_is_six_over_pi_squared():
    v = a_k_value(2, 10**6)
    assert abs(v.value - 6.0 / math.pi**2) < 5e-7
    assert v.method == "euler-product"
    assert v.params["prime_bound"] == 10**6


def test_a_k_tail_self_consistency():
    for k in (2, 3):
        v1 = a_k_value(k, 10**4)
        v2 = a_k_value(k, 2 * 10**4)
        assert abs(v2.value - v1.value) < v1.error_estimate
        assert v2.error_estimate < v1.error_estimate


def test_a_k_value_rejects_small_bound():
    with pytest.raises(ValueError):
        a_k_value(2, 100)


def test_a_k_d_examples():
    ak = a_k_value(2).value
    assert a_k_d(2, 1).value == ak
    assert abs(a_k_d(2, 3).value - ak / 4.5) < 1e-15
    assert abs(a_k_d(2, 6).value - ak / (12 * 4.5)) < 1e-15


def test_a_k_d_multiplicativity():
    rng = np.random.default_rng(29)
    ak = {k: a_k_value(k).value for k in (2, 3, 4)}
    checked = 0
    while checked < 50:
        d1, d2 = int(rng.integers(2, 3000)), int(rng.integers(2, 3000))
        if math.gcd(d1, d2) != 1:
            continue
        k = int(rng.integers(2, 5))
        lhs = a_k_d(k, d1 * d2).value * ak[k]
        rhs = a_k_d(k, d1).value * a_k_d(k, d2).value
        assert abs(lhs - rhs) / abs(rhs) < 1e-12
        checked += 1


def test_gamma_k_simple_examples():
    assert gamma_k_simple(3, 2.0) == 1.0 / factorial(8)
    assert abs(gamma_k_simple(2, 1.5) - 0.5**3 / 6.0) < 1e-18
    assert gamma_k_simple(3, 3.0 - 1e-12) < 1e-95  # vanishes at the right endpoint
    with pytest.raises(ValueError):
        gamma_k_simple(3, 1.5)
    with pytest.raises(ValueError):
        gamma_k_simple(3, 3.0)


def test_gamma_3_piecewise_examples():
    assert gamma_3_piecewise(0.5) == 0.5**8 / factorial(8)
    assert GAMMA3_PIECEWISE.eval_exact(Fraction(1)) == Fraction(1, factorial(8))
    assert GAMMA3_PIECEWISE.eval_exact(Fraction(2)) == Fraction(1, factorial(8))
    with pytest.raises(ValueError):
        gamma_3_piecewise(3.5)
    with pytest.raises(ValueError):
        gamma_3_piecewise(-0.1)


def test_gamma_3_branch_continuity_exact():
    b1, b2, b3 = (br[2] for br in GAMMA3_PIECEWISE.branches)
    at = lambda coeffs, c: sum(a * c**i for i, a in enumerate(coeffs))
    assert at(b1, Fraction(1)) == at(b2, Fraction(1))
    assert at(b2, Fraction(2)) == at(b3, Fraction(2))
    # second branch coefficients sum to 1 over 8! at c = 1
    assert at(b2, Fraction(1)) == Fraction(1, factorial(8))


def test_gamma_3_matches_simple_form_on_last_branch():
    # exact: branch coefficients equal the expansion of (3-c)^8 / 8!
    from math import comb

    expanded = tuple(
        Fraction(comb(8, i) * 3 ** (8 - i) * (-1) ** i, factorial(8)) for i in range(9)
    )
    assert GAMMA3_PIECEWISE.branches[2][2] == expanded
    # exact agreement at rational points, float agreement up to rounding
    for c in (Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)):
        assert GAMMA3_PIECEWISE.eval_exact(c) == (3 - c) ** 8 / factorial(8)
    for c in (2.0, 2.25, 2.5, 2.75, 2.999):
        assert gamma_3_piecewise(c) == pytest.approx(gamma_k_simple(3, c), rel=1e-11)


def test_gamma_k_mc_k1_exact():
    v = gamma_k_mc(1, 0.5, 10**6, seed=3)
    assert v.value == 1.0 and v.error_estimate == 0.0
    assert v.params["samples"] == 0


def test_gamma_k_mc_k2_against_closed_form():
    # gamma_2(c) = c^3/6 for c <= 1 (independent reduction of the integral)
    est = gamma_k_mc(2, 0.5, 10**5, seed=5)
    truth = 0.5**3 / 6.0
    assert abs(est.value - truth) <= 3.0 * est.error_estimate
    assert est.method == "monte-carlo"
    assert est.params["seed"] == 5 and est.params["samples"] >= 10**5


def test_gamma_k_mc_k3_against_simple_form():
    for c in (2.1, 2.9):
        est = gamma_k_mc(3, c, 10**5, seed=5)
        truth = gamma_k_simple(3, c)
        assert abs(est.value - truth) <= 3.0 * est.error_estimate


def test_gamma_k_mc_reproducible():
    a = gamma_k_mc(3, 2.5, 10**5, seed=11)
    b = gamma_k_mc(3, 2.5, 10**5, seed=11)
    assert a.value == b.value and a.error_estimate == b.error_estimate
    c = gamma_k_mc(3, 2.5, 10**5, seed=12)
    assert c.value != a.value


def test_gamma_k_mc_pinned_bits():
    # pins the estimator's arithmetic (pair order of the Vandermonde product,
    # strata, Philox chunks): any change to them moves these bits
    est = gamma_k_mc(3, 1.7, 10**6, 9)
    assert est.value.hex() == "0x1.1b4a2e07024b3p-13"
    assert est.error_estimate.hex() == "0x1.0307d55d39849p-24"
    assert est.params["samples"] == 1003284 and est.params["chunks"] == 2


def test_gamma_k_mc_validation():
    with pytest.raises(ValueError):
        gamma_k_mc(3, 2.5, 10**3, seed=1)  # too few samples
    with pytest.raises(ValueError):
        gamma_k_mc(6, 2.5, 10**5, seed=1)  # k out of range
    with pytest.raises(ValueError):
        gamma_k_mc(3, 3.5, 10**5, seed=1)  # c outside (0, k)


def test_g_k_values():
    assert g_k(1) == 1
    assert g_k(2) == 2
    assert g_k(3) == 42
    assert g_k(4) == 24024


def test_moment_integral_exact():
    for k in (1, 2, 3):
        assert gamma_integral_check(k) == 0
    with pytest.raises(ValueError):
        gamma_integral_check(4)


def test_nine_factorial_integral_is_42():
    assert factorial(9) * GAMMA3_PIECEWISE.integral() == 42


def test_convolution_compare_trivial_and_hand_values():
    lhs, rhs, gap = convolution_compare(2, 1)
    assert lhs == rhs and gap == 0.0
    # d = 3, k = 2: lhs = [phi*(1) a_2(3) + phi*(3) a_2(1)] / phi(3)
    lhs, rhs, gap = convolution_compare(2, 3)
    ak = a_k_value(2).value
    expect = (a_k_d(2, 3).value + 1 * ak) / 2.0
    assert abs(lhs - expect) < 1e-15
    assert abs(rhs - a_k_d(2, 3).value) < 1e-15
    assert gap > 0.0


def test_convolution_gap_shrinks_along_primes():
    for k in (2, 3):
        gaps = [convolution_compare(k, d)[2] for d in (101, 1009, 10007)]
        assert gaps[0] > gaps[1] > gaps[2]
