"""Variance engine: hand oracles, brute-force agreement, three-way identity."""

import dataclasses
import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvar import arith, constants, variance
from tauvar.arith import DEFAULT_SEGMENT_SIZE, divisors, euler_phi, tau_k_of, tau_k_segment, units
from tauvar.characters import CharacterGroup
from tauvar.constants import a_k_d, gamma_eval, gamma_k_simple
from tauvar.variance import (
    CUTOFFS,
    SIEVE_BUDGET,
    _segment_task,
    compute_class_sums,
    experiment,
    main_term,
    variance_characters,
    variance_direct,
    variance_primitive,
)
from tauvar.weights import _CUTOFFS, SmoothWeight, make_bump_weight


def brute_variance(k, d, x, cutoff, perturb_outside_support=0):
    """Pure-Python oracle straight from the definitions.

    Iterates every n up to 2x + 4 with the pointwise weight, accumulating per
    unit class.  perturb_outside_support adds a constant to tau_k(n) for all
    n outside (x, 2x); with the smooth cutoff this must not change anything.
    """
    w = make_bump_weight()
    units = [a for a in range(d) if math.gcd(a, d) == 1] or [0]
    sums = dict.fromkeys(units, 0.0)
    for n in range(1, int(2 * x) + 5):
        if math.gcd(n, d) != 1:
            continue
        tau = tau_k_of(k, n)
        if perturb_outside_support and not (x < n < 2 * x):
            tau += perturb_outside_support
        omega = (1.0 if n <= x else 0.0) if cutoff == "sharp" else w(n / x)
        sums[n % d] += tau * omega
    mean = sum(sums.values()) / len(units)
    return sum((v - mean) ** 2 for v in sums.values())


def test_hand_oracle_d4_x10():
    # classes mod 4 up to 10: a=1 -> tau sum 6, a=3 -> tau sum 4, mean 5
    assert variance_direct(2, 4, 10.0, "sharp") == 2.0
    assert variance_characters(2, 4, 10.0, "sharp") == 2.0
    assert variance_primitive(2, 4, 10.0, "sharp") == 2.0


def test_hand_oracle_d3_x8():
    # 8-term table: classes mod 3 have tau_2 sums 6 and 8
    assert variance_direct(2, 3, 8.0, "sharp") == 2.0


def test_trivial_modulus_is_zero():
    # d = 1 has one class: no variance, and main_term and experiment agree on 0.0
    for k, c in ((1, 0.5), (2, 1.5), (3, 2.5)):
        assert variance_direct(k, 1, 500.0, "sharp") == 0.0
        assert variance_direct(k, 1, 500.0, "smooth") == 0.0
        assert main_term(k, 1, c, gamma_method="mc", mc_samples=10**4) == 0.0
        rep = experiment(k, 1, c, "sharp", gamma_method="mc", mc_samples=10**4)
        assert rep.main_term == 0.0 and rep.ratio is None


def test_single_term_sum_mod_2_is_zero():
    # X < 2: only n = 1 contributes, and mod 2 there is a single unit class
    for k in (2, 3):
        assert variance_direct(k, 2, 1.5, "sharp") == 0.0
        assert variance_characters(k, 2, 1.5, "sharp") == 0.0


def test_engine_matches_brute_force_sharp():
    for k, d, x in [(2, 5, 30.0), (3, 8, 25.0), (2, 12, 47.5), (3, 7, 60.0)]:
        got = variance_direct(k, d, x, "sharp")
        want = brute_variance(k, d, x, "sharp")
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_engine_matches_brute_force_smooth():
    for k, d, x in [(2, 5, 30.0), (3, 8, 25.0), (2, 12, 47.5)]:
        got = variance_direct(k, d, x, "smooth")
        want = brute_variance(k, d, x, "smooth")
        assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_smooth_cutoff_locality():
    # tau values outside (x, 2x) never enter the smooth variance
    for k, d, x in [(2, 5, 30.0), (3, 8, 25.0)]:
        engine = variance_direct(k, d, x, "smooth")
        perturbed = brute_variance(k, d, x, "smooth", perturb_outside_support=100)
        assert abs(engine - perturbed) <= 1e-9 * max(1.0, engine)


def test_sharp_floor_convention():
    # non-integer x: the sharp sum runs over n <= floor(x)
    a = variance_direct(2, 5, 30.0, "sharp")
    b = variance_direct(2, 5, 30.9, "sharp")
    assert a == b
    c = variance_direct(2, 5, 31.0, "sharp")
    assert c != a


def test_three_way_equivalence_sample():
    for k, d, x, cutoff in [
        (2, 12, 1e3, "sharp"),
        (3, 8, 1e3, "smooth"),
        (2, 35, 1e4, "smooth"),
        (3, 60, 1e3, "sharp"),
        (2, 101, 1e3, "smooth"),
        (2, 27720, 27720**1.2, "sharp"),
        (2, 100003, 100003**1.1, "sharp"),
    ]:
        cs = compute_class_sums(k, d, x, cutoff)
        v_dir = variance_direct(k, d, x, cutoff, class_sums=cs)
        v_chr = variance_characters(k, d, x, cutoff, class_sums=cs)
        v_prm = variance_primitive(k, d, x, cutoff, class_sums=cs)
        scale = max(abs(v_dir), 1e-300)
        assert abs(v_chr - v_dir) / scale < 1e-9
        assert abs(v_prm - v_dir) / scale < 1e-9
        assert v_dir >= 0.0


def test_prime_modulus_primitive_equals_characters():
    # every nonprincipal character mod a prime is primitive
    for k, d in [(2, 7), (3, 13)]:
        cs = compute_class_sums(k, d, 500.0, "sharp")
        v_chr = variance_characters(k, d, 500.0, "sharp", class_sums=cs)
        v_prm = variance_primitive(k, d, 500.0, "sharp", class_sums=cs)
        assert abs(v_chr - v_prm) <= 1e-12 * max(1.0, v_chr)


def per_q_primitive_variance(cs):
    """Oracle: the primitive route with one fresh CharacterGroup(q) per q | d,
    its transform of the deviations folded mod q masked to conductor q."""
    dev = cs.sums - cs.total / cs.sums.size
    total = 0.0
    for q in divisors(cs.d)[1:]:
        group = CharacterGroup(q)
        power = np.abs(group.transform(cs.units % q, dev)) ** 2
        total += float(np.sum(power[group.conductors == q]))
    return total / cs.sums.size


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("d", [1, 2, 4, 8, 10, 12, 60, 210, 1009, 2520, 27720, 2**10, 3**7])
def test_primitive_route_matches_per_q_groups_bit_for_bit(d, cutoff):
    x = 300.0 + d**1.2
    cs = compute_class_sums(2, d, x, cutoff)
    assert variance_primitive(2, d, x, cutoff, class_sums=cs) == per_q_primitive_variance(cs)


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_class_sums_deterministic_across_workers(cutoff):
    # each cutoff's weight object crosses the pool to every segment
    a = compute_class_sums(3, 12, 3e4, cutoff, segment_size=2048, workers=1)
    for workers in (2, 8):
        b = compute_class_sums(3, 12, 3e4, cutoff, segment_size=2048, workers=workers)
        assert np.array_equal(a.sums, b.sums)


def test_sharp_class_sums_evaluate_no_weight(monkeypatch):
    # [n <= X] weighs every n of its support by 1: the bump is never evaluated
    def never(*args, **kwargs):
        raise AssertionError("the sharp cutoff evaluated a weight")

    monkeypatch.setattr(SmoothWeight, "values", never)
    assert compute_class_sums(2, 7, 1000.0, "sharp").weight_id is None


def test_class_sums_independent_of_segment_size():
    a = compute_class_sums(3, 12, 3e4, "sharp", segment_size=1 << 22)
    b = compute_class_sums(3, 12, 3e4, "sharp", segment_size=977)
    # same ascending-order Kahan merge, different cuts: equal to ~1 ulp
    assert np.allclose(a.sums, b.sums, rtol=1e-15, atol=0.0)


def test_class_sums_reject_nonpositive_segment_size():
    for size in (0, -1):
        with pytest.raises(ValueError, match="segment_size must be positive"):
            compute_class_sums(2, 101, 1000.0, "sharp", segment_size=size)


def test_class_sums_reject_non_integer_workers_and_windows():
    # both used to get past the checks and raise TypeError in the pool or range()
    with pytest.raises(ValueError, match="workers must be positive and an integer, got 2.5"):
        compute_class_sums(2, 5, 1e7, "sharp", workers=2.5)
    with pytest.raises(ValueError, match="segment_size must be positive .* an integer, got 1000.0"):
        compute_class_sums(2, 5, 1e7, "sharp", segment_size=1e3)


def test_class_sums_reject_windows_above_the_cap():
    for size in (DEFAULT_SEGMENT_SIZE + 1, 2 * DEFAULT_SEGMENT_SIZE):
        with pytest.raises(ValueError, match="segment_size must be positive and <= 4194304"):
            compute_class_sums(2, 101, 1000.0, "sharp", segment_size=size)
    whole = compute_class_sums(2, 101, 1000.0, "sharp", segment_size=DEFAULT_SEGMENT_SIZE)
    assert np.array_equal(whole.sums, compute_class_sums(2, 101, 1000.0, "sharp").sums)


def test_experiment_takes_no_window_and_reports_the_fixed_one():
    assert "segment_size" not in inspect.signature(experiment).parameters
    with pytest.raises(TypeError, match="segment_size"):
        experiment(2, 101, 1.5, "sharp", segment_size=1024)
    for workers in (1, 2):
        rep = experiment(2, 101, 1.5, "sharp", workers=workers)
        assert rep.segment_size == rep.to_dict()["segment_size"] == DEFAULT_SEGMENT_SIZE


def test_class_sums_reject_bad_x():
    for x in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="X must be finite and >= 1"):
            compute_class_sums(2, 7, x, "sharp")
        with pytest.raises(ValueError, match="X must be finite and >= 1"):
            compute_class_sums(3, 7, x, "smooth")


def test_class_sums_check_k_before_any_work(monkeypatch):
    # k = 17 used to start the pool and raise only inside the first segment
    def never(*args, **kwargs):
        raise AssertionError("work started before k was checked")

    monkeypatch.setattr(variance, "ProcessPoolExecutor", never)
    monkeypatch.setattr(variance, "primes_upto", never)
    for k in (17, 2.0, 0):
        with pytest.raises(ValueError, match="k "):
            compute_class_sums(k, 12, 1e7, "smooth", workers=2)


def test_experiment_takes_a_numpy_integer_k():
    # a numpy k used to fail in barnes_g, and to round a_k(d) through numpy's power
    got = experiment(np.int64(2), 101, 1.5, "sharp", "mc", mc_samples=10**4).to_dict()
    want = experiment(2, 101, 1.5, "sharp", "mc", mc_samples=10**4).to_dict()
    for report in (got, want):
        del report["wall_time_s"]
    assert repr(got) == repr(want)


def test_experiment_echoes_a_numpy_modulus_as_an_int():
    # a numpy d used to reach the report as np.int64, which json refuses
    rep = experiment(2, np.int64(101), 1.5, "sharp")
    assert type(rep.d) is int and type(a_k_d(2, np.int64(101)).params["d"]) is int
    got, want = rep.to_dict(), experiment(2, 101, 1.5, "sharp").to_dict()
    del got["wall_time_s"], want["wall_time_s"]
    assert json.dumps(got) == json.dumps(want)


def test_report_dict_is_a_copy_of_the_fields():
    rep = experiment(3, 101, 1.7, "smooth", "mc", mc_samples=10**4)
    got = rep.to_dict()
    assert got == dataclasses.asdict(rep)
    got["gamma_params"]["seed"] = 2
    assert rep.gamma_params["seed"] == 1


def test_class_sums_slice_a_given_sieve():
    # a sweep batch hands its points one sieve over their windows' union
    sieve = tau_k_segment(3, 1000, 9000)
    for d, x in ((7, 1500.0), (101, 3000.5), (1, 4400.0)):
        want = compute_class_sums(3, d, x, "smooth")
        got = compute_class_sums(3, d, x, "smooth", _sieve=sieve)
        assert np.array_equal(got.sums, want.sums)


def test_class_sums_reject_nonpositive_workers():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be positive"):
            compute_class_sums(2, 7, 1000.0, "sharp", workers=workers)
        with pytest.raises(ValueError, match="workers must be positive"):
            experiment(2, 101, 1.5, "sharp", workers=workers)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((3, 0, 2.5, "smooth"), {}, "modulus must be >= 1"),
        ((3, 0, -1.0, "smooth"), {}, "modulus must be >= 1"),
        ((3, 101, -1.0, "smooth"), {}, "X must be finite and >= 1"),
        ((3, 10, 1000.0, "smooth"), {}, "X must be finite and >= 1, got inf"),
        ((3, 101, 2.5, "Smooth"), {}, "cutoff must be 'sharp' or 'smooth'"),
        ((3, 101, 2.5, "smooth"), {"workers": 0}, "workers must be positive"),
        ((3, 10**6, 2.9, "smooth"), {}, "exceeds the sieve budget"),
        ((2, 5, 1.5, "sharp"), {"workers": 2.5}, "workers must be positive and an integer"),
    ],
)
def test_experiment_checks_class_sum_arguments_before_its_constants(
    monkeypatch, args, kwargs, message
):
    def never(*args, **kwargs):
        raise AssertionError("a constant was evaluated before the argument checks")

    monkeypatch.setattr(constants, "gamma_k_mc", never)  # gamma_eval's reference
    monkeypatch.setattr(variance, "a_k_d", never)
    with pytest.raises(ValueError, match=message):
        experiment(*args, "mc", mc_samples=4 * 10**6, **kwargs)


def bincount_class_sums(k, lo, hi, d, x, weight):
    """One window's class sums as np.bincount adds them: each unit class in
    ascending n, starting from 0.0, weighed by the bump for the smooth
    cutoff's object and by 1 for the sharp one's."""
    vals = tau_k_segment(k, lo, hi).values
    n = np.arange(lo, hi, dtype=np.int64)
    if isinstance(weight, SmoothWeight):
        vals = vals * weight.values(n / x)
    us = units(d)
    unit_index = np.full(d, -1, dtype=np.int64)
    unit_index[us] = np.arange(us.size)
    idx = unit_index[n % d]
    good = idx >= 0
    return np.bincount(idx[good], weights=vals[good], minlength=us.size)


@settings(max_examples=120, deadline=None)
@given(
    k=st.integers(1, 4),
    lo=st.one_of(st.just(1), st.integers(1, 10**9)),
    width=st.integers(1, 3000),
    d=st.one_of(
        st.sampled_from([1, 2, 3, 4, 12, 97, 210, 1009, 2310]),  # d = 1, prime, composite
        st.integers(3001, 10**5),  # larger than any window
    ),
    cutoff=st.sampled_from(CUTOFFS),
    x_frac=st.floats(0.55, 1.05),
)
def test_segment_class_sums_match_bincount_bit_for_bit(k, lo, width, d, cutoff, x_frac):
    # smooth: x near lo puts n / x across the bump's support on most windows
    x = max(1.0, lo * x_frac)
    weight = _CUTOFFS[cutoff]()
    task = (k, lo, lo + width, d, x, weight, None)
    part = _segment_task(task)[units(d)]
    assert np.array_equal(part, bincount_class_sums(k, lo, lo + width, d, x, weight))


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(1, 4),
    lo=st.integers(4 * 10**4, 10**8),
    width=st.integers(5041, 4 * 5040),
    d=st.sampled_from([1, 2, 97, 2310, 30011]),
    place=st.sampled_from(["inside", "crosses 1", "crosses 2"]),
    frac=st.floats(0.05, 0.95),
)
def test_segment_weight_on_windows_wider_than_the_wheel(k, lo, width, d, place, frac):
    # the weight runs unmasked when every n / x lies in (1, 2) and masked
    # when the window crosses an end of the support
    hi = lo + width
    if place == "inside":
        x = (hi - 1) / 2 + frac * (lo - (hi - 1) / 2)
        assert 1.0 < lo / x and (hi - 1) / x < 2.0
    elif place == "crosses 1":
        x = lo + frac * width
    else:
        x = (lo + frac * width) / 2
    weight = make_bump_weight()
    task = (k, lo, hi, d, x, weight, None)
    part = _segment_task(task)[units(d)]
    assert np.array_equal(part, bincount_class_sums(k, lo, hi, d, x, weight))


@pytest.mark.parametrize("d", [1, 2, 97, 1009, 65537, 100003])
@pytest.mark.parametrize("place", ["sharp", "inside", "crosses 1", "crosses 2"])
def test_segment_class_sums_over_row_blocks_match_bincount(d, place):
    # A window that starts mid-row and spans more than three of the blocks
    # of whole rows it is summed in (65537 and 100003 give one row a block):
    # every class still adds in ascending n, so the sums stay bincount's.
    block = max(1, variance._BLOCK // d) * d
    lo = 10**7 // d * d + (d + 1) // 2
    width = 3 * block + block // 2 + 5
    hi = lo + width
    weight = _CUTOFFS["sharp" if place == "sharp" else "smooth"]()
    if place in ("sharp", "inside"):
        x = (lo + hi - 1) / 3  # every n / x in (1, 2)
    elif place == "crosses 1":
        x = lo + width / 2 + 0.3
    else:
        x = (lo + width / 2 + 0.3) / 2
    part = _segment_task((3, lo, hi, d, x, weight, None))[units(d)]
    assert np.array_equal(part, bincount_class_sums(3, lo, hi, d, x, weight))


@pytest.mark.parametrize("d", [1, 1009, 100003])
def test_segment_class_sums_stay_near_the_sieve_memory(d):
    # The sieve's 2-byte cells of a 2^20-entry smooth window, one uint64
    # block of about 2^17 cells, one float64 row block of about 2^16 and the
    # weight's temporaries: no 8-byte array of the window's size is made.
    n = 2**20
    lo = 64160001
    task = (3, lo, lo + n, d, lo - 1.0, make_bump_weight(), None)
    tracemalloc.start()
    try:
        _segment_task(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 7


@pytest.mark.parametrize("d", [1, 1009, 300007])
@pytest.mark.parametrize("place", ["sharp", "inside", "crosses 2"])
def test_segment_class_sums_over_sieve_calls_match_bincount(d, place):
    # A window of 2^21 entries and more, starting mid-row, streamed from its
    # sieve in many blocks: the running class sums carry from block to
    # block, so every class still adds in ascending n.
    lo = 10**7 // d * d + (d + 1) // 2
    width = 2**21 + 1000
    hi = lo + width
    weight = _CUTOFFS["sharp" if place == "sharp" else "smooth"]()
    x = (lo + hi - 1) / 3 if place in ("sharp", "inside") else (lo + width / 2 + 0.3) / 2
    part = _segment_task((3, lo, hi, d, x, weight, None))[units(d)]
    assert np.array_equal(part, bincount_class_sums(3, lo, hi, d, x, weight))


@pytest.mark.parametrize("d", [1, 1009, 100003])
def test_segment_class_sums_sieve_in_calls(d):
    # A 2^22-entry window is sieved in one call whose uint64 cells stream to
    # the class sums a block at a time: the 2-byte cells of the window stay,
    # well under the 10 bytes per entry that sieving it whole would take.
    n = 2**22
    lo = 64160001
    task = (3, lo, lo + n, d, lo - 1.0, make_bump_weight(), None)
    tracemalloc.start()
    try:
        _segment_task(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 4


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(1, 4),
    lo=st.integers(1, 10**9),
    width=st.one_of(
        st.integers(1, variance._STREAM),  # narrower than one block
        st.integers(variance._STREAM, DEFAULT_SEGMENT_SIZE - 2000),
    ),
    d=st.one_of(
        st.just(1),
        st.integers(2, 5000),
        st.integers(variance._STREAM + 1, 3 * variance._STREAM),  # wider than a block
    ),
    cutoff=st.sampled_from(CUTOFFS),
    x_frac=st.floats(0.4, 1.05),
    pad=st.tuples(st.integers(0, 1000), st.integers(0, 1000)),
)
def test_streamed_class_sums_match_a_given_sieve(k, lo, width, d, cutoff, x_frac, pad):
    # The sieve streams its blocks of whole rows to the class sums; a given
    # sieve over a range that holds the window is summed from one slice.
    # Both add every class in ascending n from the same exact values, so
    # they agree bit for bit, mid-row starts included.
    hi = lo + width
    x = max(1.0, lo * x_frac)
    task = (k, lo, hi, d, x, _CUTOFFS[cutoff](), None)
    sieve = tau_k_segment(k, max(1, lo - pad[0]), hi + pad[1])
    assert np.array_equal(_segment_task(task), _segment_task(task, sieve))


def test_streamed_class_sums_raise_rather_than_wrap(monkeypatch):
    # With the sieve's bound lowered to 1000, the guard of an ordinary window
    # trips (tau_3(1081080) = 8100) and raises through the streamed blocks,
    # as a window whose values reach 2^62 would.
    monkeypatch.setattr(arith, "_TAU_MAX", 1000)
    task = (3, 10**6, 10**6 + 3 * variance._BLOCK, 97, 1.0, _CUTOFFS["sharp"](), None)
    with pytest.raises(OverflowError, match="64-bit sieve range"):
        _segment_task(task)


@pytest.mark.parametrize("x", [1.3e6, 1300000.5, 1.5])
@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_class_sums_sieve_every_entry_once(monkeypatch, cutoff, x):
    # Every summed entry goes through tau_k_segment, in ascending calls that
    # tile [lo, hi) exactly, whatever the window size: n <= X
    # for the sharp cutoff and X < n <= 2X for the smooth one, at integer
    # and half-integer X.
    calls = []

    def recording(k, lo, hi, **kwargs):
        calls.append((lo, hi))
        return tau_k_segment(k, lo, hi, **kwargs)

    monkeypatch.setattr(variance, "tau_k_segment", recording)
    lo, hi = {"sharp": (1, int(x) + 1), "smooth": (int(x) + 1, int(2 * x) + 1)}[cutoff]
    for segment_size in (DEFAULT_SEGMENT_SIZE, 300_000):
        calls.clear()
        compute_class_sums(3, 1009, x, cutoff, segment_size=segment_size)
        assert calls[0][0] == lo and calls[-1][1] == hi
        assert all(a[1] == b[0] for a, b in zip(calls, calls[1:]))
        assert sum(b - a for a, b in calls) == hi - lo
    assert len(calls) > (hi - lo) // 300_000


def test_class_sums_compute_units_once(monkeypatch):
    # units(d) is an O(d) gcd pass; per segment it made a narrow window cost O(d)
    calls = []

    def counting_units(d):
        calls.append(d)
        return units(d)

    monkeypatch.setattr(variance, "units", counting_units)
    cs = compute_class_sums(3, 97, 5000.0, "smooth", segment_size=500)
    assert calls == [97]
    assert np.array_equal(cs.units, units(97))


def test_routes_reject_class_sums_built_for_other_arguments():
    cs = compute_class_sums(2, 7, 1000.0, "sharp")
    mismatched = [
        (3, 7, 1000.0, "sharp"),
        (2, 11, 1000.0, "sharp"),
        (2, 7, 5.0, "sharp"),
        (2, 7, 1000.0, "smooth"),
    ]
    for route in (variance_direct, variance_characters, variance_primitive):
        assert route(2, 7, 1000.0, "sharp", class_sums=cs) > 0.0
        for args in mismatched:
            with pytest.raises(ValueError, match="class sums were built for"):
                route(*args, class_sums=cs)


def test_sieve_budget_rejected_with_estimate():
    with pytest.raises(ValueError, match="estimated"):
        compute_class_sums(2, 5, float(SIEVE_BUDGET) + 1e6, "sharp")


def test_gamma_eval_domains():
    assert gamma_eval(3, 2.5, "simple").value == gamma_k_simple(3, 2.5)
    assert gamma_eval(3, 2.0, "simple").value == 1.0 / math.factorial(8)  # c = k - 1
    assert gamma_eval(3, 0.5, "piecewise").method == "piecewise"
    with pytest.raises(ValueError):
        gamma_eval(3, 1.5, "simple")
    with pytest.raises(ValueError):
        gamma_eval(2, 1.5, "piecewise")
    with pytest.raises(ValueError):
        gamma_eval(3, 2.5, "nope")
    # a non-integer k used to reach factorial() in gamma_k_mc, or be evaluated
    for k, c, method in ((2.0, 1.5, "mc"), (2.5, 1.5, "mc"), (3.0, 0.5, "piecewise")):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            gamma_eval(k, c, method)


def test_main_term_k1_collapses_to_phi_over_d():
    for d in (12, 45, 101):
        for c in (0.3, 0.7):
            got = main_term(1, d, c, gamma_method="mc", mc_samples=10**4)
            want = euler_phi(d) / d * float(d) ** c
            assert abs(got - want) / want < 1e-9


def test_main_term_composition():
    k, d, c = 3, 1009, 2.6
    want = (
        a_k_d(k, d).value
        * gamma_k_simple(k, c)
        * float(d) ** c
        * math.log(d) ** (k * k - 1)
    )
    assert abs(main_term(k, d, c) - want) < 1e-12 * want


def test_modulus_rule_has_one_message():
    # a_k_d(2, 0) and main_term(2, 0, 1.5) used to raise factorize's
    # "n must be positive, got 0"
    def message(fn, *args):
        with pytest.raises(ValueError) as exc:
            fn(*args)
        return str(exc.value)

    for bad in (0, 12.0, np.float64(12.0), "12"):
        messages = {
            message(units, bad),
            message(CharacterGroup, bad),
            message(compute_class_sums, 2, bad, 1e5, "sharp"),
            message(experiment, 2, bad, 1.5),
            message(main_term, 2, bad, 1.5),
            message(a_k_d, 2, bad),
            message(constants.convolution_compare, 2, bad),
        }
        assert messages == {f"modulus must be >= 1 and an integer, got {bad!r}"}
    # numpy integers are valid moduli
    assert np.array_equal(units(np.int64(12)), units(12))
    assert CharacterGroup(np.int32(12)).orders == CharacterGroup(12).orders


def test_experiment_reports_the_fixed_truncation():
    assert "prime_bound" not in inspect.signature(experiment).parameters
    assert "prime_bound" not in inspect.signature(main_term).parameters
    rep = experiment(2, 101, 1.5, "sharp")
    assert rep.prime_bound == rep.to_dict()["prime_bound"] == constants.PRIME_BOUND


def test_main_term_vanishes_at_right_endpoint():
    near = main_term(3, 101, 3.0 - 1e-9)
    assert near < 1e-60


def test_experiment_report_fields_and_determinism():
    rep1 = experiment(2, 4, 1.6609640474436813, cutoff="sharp")  # X = 4^c = 10
    assert abs(rep1.x - 10.0) < 1e-9
    assert rep1.variance == 2.0
    assert rep1.ratio == rep1.variance / rep1.main_term
    rep2 = experiment(2, 4, 1.6609640474436813, cutoff="sharp")
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    # the JSONL record schema is these keys in this order
    assert list(d1) == [
        "k", "d", "c", "x", "cutoff", "weight_id", "variance", "main_term", "ratio",
        "a_k_d_value", "a_k_d_error", "prime_bound", "gamma_method", "gamma_value",
        "gamma_error", "gamma_params", "wall_time_s", "segment_size", "code_version",
    ]
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2


def test_experiment_smooth_end_to_end():
    rep = experiment(3, 101, 2.5, cutoff="smooth")
    assert rep.x == pytest.approx(101.0**2.5)
    assert rep.variance > 0.0 and rep.main_term > 0.0
    assert 0.0 < rep.ratio < math.inf
    assert rep.weight_id is not None
    assert rep.gamma_method == "simple"
    assert rep.code_version
