"""Bump weight, Mellin transform numerics, decay and Parseval checks."""

import math

import numpy as np
import pytest

from tauvar.weights import (
    SmoothWeight,
    ToleranceNotReached,
    make_bump_weight,
    mellin_decay_check,
    mellin_numeric,
    parseval_check,
)

# frozen oracle values (mpmath.quad at 40 digits on the same bump):
AMPLITUDE = 101.54160871374099875
W_AT_1_5 = 1.8597994373820241447
M_AT_1 = 0.71382313163696048304
M_AT_HALF_10I = -0.24396423682662140002 - 0.27994881996005848669j
M_AT_2_25I = 0.044267737917054423073 - 0.046467444786544556268j
M_AT_MINUS1 = 0.3256341483778185289


@pytest.fixture(scope="module")
def w():
    return make_bump_weight()


def test_support_boundaries_exact(w):
    assert w(1.0) == 0.0 and w(2.0) == 0.0
    assert w(0.5) == 0.0 and w(2.5) == 0.0
    assert np.all(w.values(np.array([0.0, 1.0, 2.0, 3.0])) == 0.0)
    assert w(1.1) > 0.0 and w(1.9) > 0.0
    assert w(math.nan) == 0.0  # NaN is outside (1, 2), as in values()


def test_values_in_place_match_the_formula_bit_for_bit(w):
    rng = np.random.default_rng(3)
    specials = [1.0, 2.0, np.nextafter(1.0, 2.0), np.nextafter(2.0, 1.0), np.nextafter(1.0, 0.0)]
    specials += [np.nextafter(2.0, 3.0), 0.0, -1e308, 1e308, np.inf, -np.inf, np.nan]
    inside = np.concatenate([rng.uniform(1.0, 2.0, 10**5), np.arange(10**4, 2 * 10**4) / 10**4])
    inside = inside[(inside > 1.0) & (inside < 2.0)]
    # t (1 - t) with t = y - 1 must round as (y - 1)(2 - y) does
    formula = w.amplitude * np.exp(-1.0 / ((inside - 1.0) * (2.0 - inside)))
    assert np.array_equal(w.values(inside), formula)
    mixed = np.concatenate([inside, specials, rng.uniform(-3.0, 5.0, 10**4)])
    want = w.values(mixed)
    assert np.array_equal(want[: inside.size], formula)
    outside = ~((mixed > 1.0) & (mixed < 2.0))
    assert np.all(want[outside] == 0.0) and not np.signbit(want[outside]).any()
    for y in (inside, mixed):
        expect = w.values(y)
        buf = np.full_like(y, 7.0)
        assert w.values(y, out=buf) is buf
        assert np.array_equal(buf, expect)
        own = y.copy()
        assert w.values(own, out=own) is own
        assert np.array_equal(own, expect)


def test_normalization(w):
    assert abs(w.l2_norm_sq() - 1.0) < 1e-10
    assert abs(w.amplitude - AMPLITUDE) < 1e-9 * AMPLITUDE


def test_value_at_midpoint(w):
    assert abs(w(1.5) - W_AT_1_5) < 1e-12
    assert abs(w(1.5) - w.amplitude * math.exp(-4.0)) < 1e-14


def test_mellin_against_quadrature_oracle(w):
    cases = [
        (1.0, M_AT_1),
        (complex(0.5, 10.0), M_AT_HALF_10I),
        (complex(2.0, 25.0), M_AT_2_25I),
        (-1.0, M_AT_MINUS1),
    ]
    for s, ref in cases:
        got = mellin_numeric(w, s, tol=1e-12)
        assert abs(got.value - ref) < 1e-11
        assert got.error <= 1e-12
    # all four points in one call, each converged on its own
    s, ref = (np.array(col) for col in zip(*cases))
    got = mellin_numeric(w, s, tol=1e-12)
    assert got.value.shape == got.error.shape == (4,)
    assert np.all(np.abs(got.value - ref) < 1e-11)
    assert np.all(got.error <= 1e-12)


def test_mellin_continuity(w):
    a = mellin_numeric(w, 1.0).value
    b = mellin_numeric(w, complex(1.0, 1e-9)).value
    assert abs(a - b) <= 1e-8


def test_mellin_real_positive_on_real_axis(w):
    for s in (1.0, 1.5, 2.0, 3.0):
        v = mellin_numeric(w, s).value
        assert abs(v.imag) < 1e-15
        assert v.real > 0.0


def test_oscillatory_decay(w):
    m10 = abs(mellin_numeric(w, complex(0.5, 10.0)).value)
    m40 = abs(mellin_numeric(w, complex(0.5, 40.0)).value)
    assert m40 < m10


def test_tolerance_floor_and_failure(w):
    for tol in (1e-14, math.nan):
        with pytest.raises(ValueError, match="floor 1e-13"):
            mellin_numeric(w, 1.0, tol=tol)
    with pytest.raises(ToleranceNotReached) as exc:
        mellin_numeric(w, complex(0.5, 5e4), tol=1e-12)
    assert exc.value.error > 1e-12  # best value and estimate are carried out
    # one point short of tol fails the array; the best values come out
    with pytest.raises(ToleranceNotReached) as exc:
        mellin_numeric(w, np.array([1.0, complex(0.5, 5e4)]), tol=1e-12)
    assert exc.value.value.shape == (2,) and exc.value.error > 1e-12
    assert abs(exc.value.value[0] - M_AT_1) < 1e-11


def test_refinement_consistency(w):
    for s in (1.0, complex(0.5, 7.0), complex(2.0, 25.0)):
        v1 = mellin_numeric(w, s, tol=1e-6)
        v2 = mellin_numeric(w, s, tol=5e-7)
        assert abs(v2.value - v1.value) <= max(v1.error, 1e-15)


def test_decay_check_orders(w):
    r0 = mellin_decay_check(w, 0, [0.0, 5.0, 10.0], sigmas=(0.5,))
    int_w = mellin_numeric(w, 1.0).value.real
    assert r0.sup <= int_w + 1e-12

    vals = [
        (1.0 + t) ** 3 * abs(mellin_numeric(w, complex(0.5, t)).value)
        for t in (10.0, 20.0, 40.0)
    ]
    assert max(vals) / min(vals) < 10.0

    m10 = abs(mellin_numeric(w, complex(0.5, 10.0)).value)
    m20 = abs(mellin_numeric(w, complex(0.5, 20.0)).value)
    assert m10 / m20 >= 2.0

    r3 = mellin_decay_check(w, 3, [10.0, 20.0, 40.0])
    assert set(r3.bounds) == {-1.0, 0.5, 2.0}
    assert all(math.isfinite(b) for b in r3.bounds.values())
    with pytest.raises(ValueError):
        mellin_decay_check(w, 7, [1.0])
    # far out on the line the quadrature cannot converge: raise, not a silent value
    with pytest.raises(ToleranceNotReached):
        mellin_decay_check(w, 0, [10.0, 5e4], sigmas=(0.5,))


def test_parseval_residual(w):
    assert parseval_check(w) < 1e-6


def test_parseval_scaling_bilinearity(w):
    # w -> 2w scales both sides by 4; the identity residual stays tiny
    assert parseval_check(w.scaled(2.0)) < 1e-6


def test_parseval_without_normalization():
    raw = SmoothWeight(amplitude=1.0)  # int w^2 is ~9.7e-5, nowhere near 1
    assert abs(raw.l2_norm_sq() - 1.0) > 0.9
    assert parseval_check(raw) < 1e-6


def test_parseval_truncation_report(w):
    from tauvar.weights import TruncationInsufficient

    with pytest.raises(TruncationInsufficient):
        parseval_check(w, t_max=20.0, tail_tol=1e-12)


def test_parseval_rejects_bad_grid(w):
    for name, v in (("dt", 0.0), ("t_max", -5.0), ("dt", math.nan), ("t_max", math.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            parseval_check(w, **{name: v})
