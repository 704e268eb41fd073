"""Exact arithmetic core: factorization, tau_k, sieve, phi/mu/phi_star."""

import inspect
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvar import arith
from tauvar.arith import (
    DEFAULT_SEGMENT_SIZE,
    MAX_N,
    Factorization,
    dirichlet_convolve,
    divisors,
    euler_phi,
    factorize,
    moebius,
    phi_star,
    tau_k_of,
    tau_k_segment,
    tau_k_segments,
)


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(15000).factors == ((2, 3), (3, 1), (5, 4))


def test_factorize_multiplies_back():
    rng = np.random.default_rng(7)
    for n in rng.integers(1, 10**9, size=50):
        n = int(n)
        fac = factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert e >= 1
            prod *= p**e
        assert prod == n
        assert list(fac.primes()) == sorted(fac.primes())


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)
    with pytest.raises(ValueError):
        factorize(MAX_N + 1)


def test_factorize_large():
    # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
    fac = factorize(MAX_N)
    assert fac.factors == ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))


def test_tau_k_of_examples():
    assert tau_k_of(3, 1) == 1
    assert tau_k_of(3, 4) == 6  # C(4, 2)
    assert tau_k_of(2, 12) == 6  # divisors of 12
    assert tau_k_of(3, 12) == 18  # 18 ordered triples with product 12


def test_tau_k_of_matches_enumeration():
    # oracle: count ordered pairs/triples with the given product
    for n in range(1, 40):
        pairs = sum(1 for a in range(1, n + 1) if n % a == 0)
        assert tau_k_of(2, n) == pairs
        triples = sum(
            1 for a in range(1, n + 1) for b in range(1, n + 1) if n % (a * b) == 0
        )
        assert tau_k_of(3, n) == triples


def test_tau_k_bounds():
    with pytest.raises(ValueError):
        tau_k_of(0, 5)
    with pytest.raises(ValueError):
        tau_k_of(17, 5)


def test_tau_segment_examples():
    assert tau_k_segment(2, 1, 11).values.tolist() == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]
    assert tau_k_segment(3, 1, 5).values.tolist() == [1, 3, 3, 6]
    assert tau_k_segment(2, 100, 101).values.tolist() == [9]  # 100 = 2^2 5^2


def test_tau_segment_matches_formula():
    rng = np.random.default_rng(11)
    for k in (2, 3, 4):
        seg = tau_k_segment(k, 1, 20_001)
        for n in rng.integers(1, 20_001, size=200):
            assert int(seg.values[int(n) - 1]) == tau_k_of(k, int(n))
        assert int(seg.values.min()) >= 1


def test_tau_segment_far_window():
    lo = 10**12
    seg = tau_k_segment(3, lo, lo + 64)
    for i in range(64):
        assert int(seg.values[i]) == tau_k_of(3, lo + i)
    # numpy bounds around a multiple of p^2, p = 5000011, where p^3 > 2^63
    m = (2**44 // 5000011**2 + 1) * 5000011**2
    seg = tau_k_segment(2, np.int64(m - 3), np.int64(m + 5))
    assert [int(v) for v in seg.values] == [tau_k_of(2, n) for n in range(m - 3, m + 5)]


def test_segmentation_independence():
    whole = tau_k_segment(3, 1, 10_001).values
    for size in (73, 512, 9_999):
        parts = [s.values for s in tau_k_segments(3, 1, 10_001, size)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_tau_segment_rejects_oversize_before_allocating():
    with pytest.raises(ValueError, match="exceeds the cap"):
        tau_k_segment(2, 1, 2 + DEFAULT_SEGMENT_SIZE)
    with pytest.raises(ValueError):
        tau_k_segment(2, 10, 10)


def test_window_cap_is_fixed():
    # tau_k_segment has no cap to raise; tau_k_segments takes windows of
    # 1..2^22 entries only, checked before any prime is sieved
    assert "segment_cap" not in inspect.signature(tau_k_segment).parameters
    with mock.patch.object(arith, "primes_upto", side_effect=AssertionError("sieved primes")):
        for size in (0, -1, DEFAULT_SEGMENT_SIZE + 1, 2 * DEFAULT_SEGMENT_SIZE):
            with pytest.raises(ValueError, match="segment_size must be positive"):
                next(tau_k_segments(2, 1, 100, size))
    assert [s.hi - s.lo for s in tau_k_segments(2, 1, 11, DEFAULT_SEGMENT_SIZE)] == [10]


def test_tau_segments_check_the_range_before_building_primes():
    refuse = mock.patch.object(arith, "primes_upto", side_effect=AssertionError("sieved primes"))
    cases = [
        ((2, 1, 2**70), "exceeds the supported bound 2^63 - 1"),
        ((2, 10, 5), "need 1 <= lo < hi"),
        ((2, 5, -3), "need 1 <= lo < hi"),
        ((2, 0, 5), "need 1 <= lo < hi"),
        ((0, 1, 5), "k must be a positive integer"),
        ((17, 1, 5), "exceeds the supported bound 16"),
    ]
    with refuse:
        for args, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                list(tau_k_segments(*args, 4))


def test_tau_segments_raise_at_the_call():
    # no window is asked for: the arguments are checked when the stream is made
    with pytest.raises(ValueError, match="segment_size must be positive"):
        tau_k_segments(2, 1, 100, 0)
    with pytest.raises(ValueError, match=re.escape("need 1 <= lo < hi")):
        tau_k_segments(2, 10, 5)


def test_tau_segment_overflow_guard():
    # tau_16 at 2^4 * 3^2 * (5 * 7 * ... * 43) exceeds 2^62; must raise, not wrap
    n = 2**4 * 3**2 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    assert n <= MAX_N
    assert tau_k_of(16, n) > 2**62  # exact big-int path keeps working
    with pytest.raises(OverflowError):
        tau_k_segment(16, n, n + 1)
    # the band between 2^61 and 2^63: one value just under 2^62 is returned
    # exactly, one just over it raises
    for k, factors, want in (
        (12, {2: 3, 3: 15, 5: 3, 7: 3, 11: 6}, 4611563034396631040),
        (16, {2: 1, 3: 18, 5: 12, 7: 1}, 4615632648375091200),
    ):
        n = math.prod(p**e for p, e in factors.items())
        assert n <= MAX_N and 2**61 < want < 2**63
        assert math.prod(tau_k_of(k, p**e) for p, e in factors.items()) == want
        ps = np.array(sorted(factors), dtype=np.int64)
        if want < 2**62:
            assert tau_k_segment(k, n, n + 1, _primes=ps).values.tolist() == [want]
        else:
            with pytest.raises(OverflowError):
                tau_k_segment(k, n, n + 1, _primes=ps)


def test_guarded_window_checks_cells_in_place():
    # k = 16 at 2^20 can pass 2^62, so the window is checked; the checks
    # read the uint64 cells in place and add no array of the window's size
    n = 2**20
    tracemalloc.start()
    try:
        values = tau_k_segment(16, n, 2 * n).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 16 ** ((2 * n - 1).bit_length() - 1) >= 2**62
    assert values.nbytes == 8 * n
    assert peak / n <= 12


def _assert_sieve_matches_formula(k, lo, hi):
    seg = tau_k_segment(k, lo, hi)
    assert seg.values.dtype == np.uint64
    assert [int(v) for v in seg.values] == [tau_k_of(k, n) for n in range(lo, hi)]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 16), hi=st.integers(2, 5000))
def test_sieve_property_from_one(k, hi):
    _assert_sieve_matches_formula(k, 1, hi)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 16),
    center=st.sampled_from([2**20 * 3**5, 2**27, 3**17, 2**9 * 3**4 * 5**3 * 7**2]),
    offset=st.integers(-64, 64),
    width=st.integers(1, 64),
)
def test_sieve_property_near_high_prime_powers(k, center, offset, width):
    lo = center + offset
    _assert_sieve_matches_formula(k, lo, lo + width)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(3, 16), width=st.integers(1, 12))
def test_sieve_matches_formula_at_the_shadow_threshold(k, width):
    # a window checks its cells before each multiply once
    # k^floor(log2(hi - 1)) >= 2^62, so the window ending at 2^L runs without
    # checks and the one ending at 2^L + 1 with them; k = 2 is left out, as its edge 2^62 would need primes up to 2^31
    L = min(e for e in range(64) if k**e >= 2**62)
    for hi in (2**L, 2**L + 1):
        _assert_sieve_matches_formula(k, hi - width, hi)


WHEEL = 2**4 * 3**2 * 5 * 7
WHEEL_WIDTHS = [1, WHEEL - 1, WHEEL, WHEEL + 1, 3 * WHEEL + 17]


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 16),
    turns=st.integers(0, 40),
    residue=st.sampled_from([0, 1, WHEEL - 1]),
    width=st.sampled_from(WHEEL_WIDTHS),
)
def test_sieve_wheel_head_copies(k, turns, residue, width):
    # the powers 2^4, 3^2, 5 and 7 are sieved on the first WHEEL cells and
    # copied across the window: windows one cell short of, at and past the
    # period, and over three periods, starting on either side of a turn
    lo = max(1, turns * WHEEL + residue)
    _assert_sieve_matches_formula(k, lo, lo + width)


@settings(max_examples=12, deadline=None)
@given(
    k=st.integers(8, 16),
    width=st.sampled_from(WHEEL_WIDTHS[1:]),
    guarded=st.booleans(),
)
def test_sieve_wheel_at_the_shadow_threshold(k, width, guarded):
    # As in test_sieve_matches_formula_at_the_shadow_threshold, the window
    # ending at 2^L runs without checks and the one ending at 2^L + 1 with
    # them, here wider than the wheel, so the wheel's strikes on the first
    # 5040 cells are checked too before the head is copied across.
    # k >= 8 keeps 2^L <= 2^21, where tau_k_of is cheap.
    L = min(e for e in range(64) if k**e >= 2**62)
    hi = 2**L + guarded
    _assert_sieve_matches_formula(k, hi - width, hi)


def _is_prime(n):
    return n > 1 and factorize(n).factors == ((n, 1),)


def _prev_prime(n):
    n -= 1
    while not _is_prime(n):
        n -= 1
    return n


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def test_log_test_on_tight_semiprimes():
    # n = p q with p < q consecutive primes, at the top of a window ending at
    # n + 1: q is the least prime with q^2 >= hi, so the unsieved factor is as
    # small as the log test allows and the log cell as short of log2 n as it
    # can be while still flagged
    for q in (_next_prime(2**5), _next_prime(1000), _next_prime(2**14), _next_prime(2**17)):
        p = _prev_prime(q)
        n = p * q
        assert p * p < n + 1 <= q * q
        for k in (2, 3, 7, 16):
            _assert_sieve_matches_formula(k, n - 15, n + 1)


def test_log_test_on_the_cells_with_most_hits():
    # high powers of 2 and 3 times small primes: the most log hits a cell can
    # take, each one rounding the same way, with and without a prime > sqrt(hi)
    cells = [2**23, 3**14, 2**12 * 3**7, 2**10 * 3**5 * 5**2 * 7, 7**8, 3**9 * 1009]
    for n in cells:
        for k in (2, 3, 16):
            _assert_sieve_matches_formula(k, max(1, n - 20), n + 21)


def test_log_test_near_2_62():
    # Windows of one cell from 2^54 to 2^63, where s = 3 log units per bit,
    # for k = 3..16.  At s = 3, hits on 3, 19, 23 and 29 round up by 0.25 to 0.43
    # units each and hits on 7, 11 and 13 round down by 0.1 to 0.42: each
    # prime is tried alone (P = 1) and beside the least prime P > f^e.  p q
    # is the tight semiprime of the test above.  Only primes dividing n touch
    # its cell, so the sieve gets just the one below sqrt(hi) (the full list
    # up to 2^31 would take gigabytes), and the expected value is tau_k over
    # the known factorization (tau_k_of(p q) would trial-divide to 2^31).
    q = _next_prime(2**31)
    p = _prev_prime(q)
    cases = [({p: 1, q: 1}, p)]
    for f in (3, 7, 11, 13, 19, 23, 29):
        e = int(math.log(MAX_N, f))
        while f**e > MAX_N:
            e -= 1
        cases.append(({f: e}, f))
        e = 1
        while f ** (e + 1) * _next_prime(f ** (e + 1) + 1) <= MAX_N:
            e += 1
        cases.append(({f: e, _next_prime(f**e + 1): 1}, f))
    for factors, sieved in cases:
        n = math.prod(f**e for f, e in factors.items())
        assert 2**54 <= n <= MAX_N
        assert all(f == sieved or f * f > n for f in factors)
        for k in range(3, 17):
            want = math.prod(tau_k_of(k, f**e) for f, e in factors.items())
            ps = np.array([sieved], dtype=np.int64)
            if want < 2**61:
                assert tau_k_segment(k, n, n + 1, _primes=ps).values.tolist() == [want]
            else:  # the check before the multiply catches these
                assert want > 2**63
                with pytest.raises(OverflowError):
                    tau_k_segment(k, n, n + 1, _primes=ps)


def test_multiplicativity_property():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 120:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) != 1:
            continue
        for k in (2, 3, 4):
            assert tau_k_of(k, m * n) == tau_k_of(k, m) * tau_k_of(k, n)
        checked += 1


def test_euler_phi_and_moebius():
    assert [euler_phi(n) for n in (1, 2, 9, 12, 97)] == [1, 1, 6, 4, 96]
    assert [moebius(n) for n in (1, 2, 4, 6, 30, 49)] == [1, -1, 0, 1, -1, 0]
    # phi = sum over divisors of mu(d) * n/d
    for n in (12, 36, 97, 360):
        assert euler_phi(n) == dirichlet_convolve(moebius, lambda b: b, n)


def test_phi_star_examples():
    assert phi_star(1) == 1
    assert phi_star(2) == 0
    assert phi_star(4) == 1  # phi(4) - phi(2) = 2 - 1 ... = mu*phi at 4
    assert phi_star(12) == 1
    for d in (12, 60, 97, 200):
        assert sum(phi_star(q) for q in divisors(d)) == euler_phi(d)


def test_dirichlet_convolve_examples():
    assert dirichlet_convolve(moebius, euler_phi, 12) == phi_star(12)
    assert dirichlet_convolve(lambda a: 1, lambda b: 1, 36) == 9  # tau_2(36)
    assert dirichlet_convolve(lambda a: tau_k_of(2, a), lambda b: 1, 12) == 18


def test_convolution_recursion_property():
    for k in (2, 3, 4, 5):
        for n in list(range(1, 60)) + [360, 1024, 9973]:
            conv = dirichlet_convolve(lambda a, kk=k: tau_k_of(kk - 1, a), lambda b: 1, n)
            assert conv == tau_k_of(k, n)


def test_factorization_is_frozen_value_object():
    fac = factorize(90)
    assert fac == Factorization(n=90, factors=((2, 1), (3, 2), (5, 1)))
