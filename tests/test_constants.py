"""Euler-product constants, gamma_k evaluators, moment identities."""

import inspect
import math
import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import tauvar.constants
from tauvar.arith import divisors, euler_phi, phi_star
from tauvar.constants import (
    _MC_BLOCK,
    GAMMA3_PIECEWISE,
    PRIME_BOUND,
    a_k_d,
    a_k_value,
    convolution_compare,
    g_k,
    gamma_eval,
    gamma_integral_check,
    gamma_k_mc,
    gamma_k_simple,
    local_factor,
    local_factor_series,
)
from tauvar.specfun import barnes_g


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
    with pytest.raises(ValueError, match="prime_bound must be >= 1000, got 100"):
        a_k_value(2, 100)


def test_a_k_d_has_one_truncation():
    assert "prime_bound" not in inspect.signature(a_k_d).parameters
    assert a_k_d(3, 1009).params == {"prime_bound": PRIME_BOUND, "d": 1009}
    assert a_k_value(3) == a_k_value(3, PRIME_BOUND)


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
    assert gamma_eval(3, 0.5, "piecewise").value == 0.5**8 / factorial(8)
    assert GAMMA3_PIECEWISE.eval_exact(Fraction(1)) == Fraction(1, factorial(8))
    assert GAMMA3_PIECEWISE.eval_exact(Fraction(2)) == Fraction(1, factorial(8))
    # the domain is checked once, by check_gamma_domain, with its message;
    # c = inf and NaN fail it too, before Fraction(c) could raise otherwise
    for c in (3.5, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma method 'piecewise' needs c in"):
            gamma_eval(3, c, "piecewise")


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
        want = pytest.approx(gamma_k_simple(3, c), rel=1e-11)
        assert gamma_eval(3, c, "piecewise").value == want


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


def test_gamma_k_mc_needs_integer_samples_and_seed():
    # a float seed used to sample with its integer part and record the float;
    # a float sample count used to raise TypeError from range()
    for samples, seed, message in (
        (10**4, 1.5, "seed = 1.5 is not an integer"),
        (1e4, 1, "samples = 10000.0 is not an integer"),
    ):
        with pytest.raises(ValueError, match=message):
            gamma_k_mc(3, 2.5, samples, seed)
        with pytest.raises(ValueError, match=message):
            gamma_eval(3, 2.5, "mc", mc_samples=samples, mc_seed=seed)
        with pytest.raises(ValueError, match=message):
            gamma_k_mc(1, 0.5, samples, seed)  # k = 1 records its seed too
    assert gamma_k_mc(3, 2.5, np.int64(10**4), np.uint64(1)) == gamma_k_mc(3, 2.5, 10**4, 1)


def test_gamma_eval_takes_a_numpy_integer_k():
    # barnes_g used to refuse the np.int64 that the k rule had accepted
    for method, c in (("mc", 1.5), ("simple", 2.5), ("piecewise", 1.5)):
        got = gamma_eval(np.int64(3), c, method, mc_samples=10**4)
        assert repr(got) == repr(gamma_eval(3, c, method, mc_samples=10**4))
    for s in (1.0, 2.0):
        assert local_factor(np.int64(2), 101, s).hex() == local_factor(2, 101, s).hex()


def test_gamma_k_mc_seed_is_a_philox_key():
    # the seed is one uint64 word of the Philox key; 2^64 used to pass the
    # domain rule and then overflow in np.uint64
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match=r"outside the Philox key range 0\.\.2\^64 - 1"):
            gamma_k_mc(3, 2.5, 10**4, seed)
        with pytest.raises(ValueError, match="Philox key range"):
            gamma_eval(3, 2.5, "mc", mc_samples=10**4, mc_seed=seed)
    top = gamma_k_mc(3, 2.5, 10**4, 2**64 - 1)
    assert top.params["seed"] == 2**64 - 1 and top.value > 0.0


def _vandermonde_sq_from_ones(w):
    d = np.ones(w[0].shape, dtype=np.float64)
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            d *= w[i] - w[j]
    return d * d


def _gamma_k_mc_whole_chunks(k, c, samples, seed):
    """gamma_k_mc's loop before blocks: every chunk's (cells, points, dim)
    arrays at once, the Vandermonde product started from ones."""
    dim = k - 1
    norm = 1.0 / (factorial(k) * barnes_g(k + 1) ** 2)
    m = max(1, int(round((samples / 256.0) ** (1.0 / dim))))
    ncells = m**dim
    n_c = max(2, -(-samples // ncells))
    cells_chunk = max(1, (1 << 21) // (n_c * k))
    mean_acc = 0.0
    var_acc = 0.0
    n_chunks = 0
    for start in range(0, ncells, cells_chunk):
        stop = min(start + cells_chunk, ncells)
        nc = stop - start
        rng = np.random.Generator(
            np.random.Philox(key=(np.uint64(seed), np.uint64(n_chunks)))
        )
        u = rng.random((nc, n_c, dim))
        corner = np.empty((nc, dim), dtype=np.float64)
        rem = np.arange(start, stop, dtype=np.int64)
        for axis in range(dim - 1, -1, -1):
            corner[:, axis] = rem % m
            rem = rem // m
        pts = (corner[:, None, :] + u) / m
        w_last = c - pts.sum(axis=2)
        ok = (w_last >= 0.0) & (w_last <= 1.0)
        w = [pts[..., axis] for axis in range(dim)] + [w_last]
        y = np.where(ok, _vandermonde_sq_from_ones(w), 0.0)
        mean_acc += float(y.mean(axis=1).sum())
        var_acc += float((y.var(axis=1, ddof=1) / n_c).sum())
        n_chunks += 1
    params = {
        "samples": ncells * n_c,
        "requested": samples,
        "seed": seed,
        "strata_per_dim": m,
        "chunks": n_chunks,
    }
    return norm * mean_acc / ncells, norm * math.sqrt(var_acc) / ncells, params


def test_gamma_k_mc_blocks_match_whole_chunks_bit_for_bit():
    # every (k, samples, seed) once; c walks the branches [j, j + 1) of
    # gamma_k, so each k meets each of its branches
    layouts = set()
    for k in range(2, 6):
        for i, samples in enumerate((10**4, 12345, 3 * 10**5, 10**6)):
            for s, seed in enumerate((1, 2**64 - 1)):
                c = (2 * i + s) % k + (0.3, 0.7)[s]
                value, err, params = _gamma_k_mc_whole_chunks(k, c, samples, seed)
                est = gamma_k_mc(k, c, samples, seed)
                assert est.value.hex() == value.hex(), (k, c, samples, seed)
                assert est.error_estimate.hex() == err.hex(), (k, c, samples, seed)
                assert est.params == params, (k, c, samples, seed)
                ncells = params["strata_per_dim"] ** (k - 1)
                n_c = params["samples"] // ncells
                cells_chunk = (1 << 21) // (n_c * k)
                layouts.add(
                    (ncells % cells_chunk != 0 and params["chunks"] > 1,
                     cells_chunk % max(1, _MC_BLOCK // n_c) != 0)
                )
    # some case ends on a short chunk, and some chunk ends on a short block
    assert any(short for short, _ in layouts) and any(ragged for _, ragged in layouts)


def test_gamma_k_mc_memory_is_bounded():
    # blocks of about 2^14 points: the traced peak does not grow with samples
    # (whole chunks took 38-52 MiB at 10^6 samples)
    for k in range(2, 6):
        for samples in (10**6, 10**7):
            tracemalloc.start()
            try:
                gamma_k_mc(k, k - 0.5, samples, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2**20, (k, samples, peak)


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


def test_convolution_compare_evaluates_a_k_once(monkeypatch):
    # it used to evaluate a_k once per divisor: 97 times at d = 27720
    calls = []

    def counted(*args):
        calls.append(args)
        return a_k_value(*args)

    monkeypatch.setattr(tauvar.constants, "a_k_value", counted)
    lhs, rhs, _ = convolution_compare(3, 27720)
    assert calls == [(3,)]
    a_k_d_of = {r: a_k_d(3, r).value for r in divisors(27720)}
    want = sum(phi_star(q) * a_k_d_of[27720 // q] for q in divisors(27720)) / euler_phi(27720)
    assert (lhs, rhs) == (want, a_k_d_of[27720])


def test_convolution_gap_shrinks_along_primes():
    for k in (2, 3):
        gaps = [convolution_compare(k, d)[2] for d in (101, 1009, 10007)]
        assert gaps[0] > gaps[1] > gaps[2]
