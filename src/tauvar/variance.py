"""Variance of tau_k over reduced residue classes, three equivalent ways.

The engine streams sieve segments once, accumulating for each unit class a
mod d the weighted sum  S_a = sum_{n = a (d)} tau_k(n) omega(n), omega the
weight of the chosen cutoff (see `tauvar.weights`).  The variance
sum_a* |S_a - mean|^2 is then formed three ways:

- directly from the class deviations;
- as (1/phi(d)) sum over nonprincipal characters of |sum_a chi(a) S_a|^2;
- as (1/phi(d)) sum over factorizations d = q r with q > 1 and primitive
  characters mod q of the same square (character induction identity).

Both character routes work on one group mod d.  The nonprincipal route
takes one FFT of the deviations S_a - mean over its exponent grid
(`CharacterGroup.transform`); the primitive route takes one FFT per q | d
over shared prime-power logs, the deviations folded mod q, and keeps the
entries of conductor q (`CharacterGroup.primitive_powers`).  All three are
exact algebra over the same class sums, so agreement to near machine
precision is a strong check of the character machinery.

Each segment carries the cutoff's weight object over the n of its support
and lays them row by row in a (rows, d) grid, column j holding the
n = j mod d, and walks it in blocks of whole rows of about 2^16 cells.  It
sieves tau_k in consecutive calls of whole blocks, about 2^20 entries each,
so one call's cells are alive at a time.  A block is cast into one reused
buffer whose first row holds the running class sums, which carry from call
to call, weighed there in place by the weight object, and summed along its
rows in order, so every class adds in ascending n, as over the whole grid.
Class sums are merged across segments in ascending order with Kahan
compensation, which makes every result independent of the worker count.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ._version import __version__
from .arith import (
    _INTEGERS,
    _L2,
    DEFAULT_SEGMENT_SIZE,
    _check_k,
    _check_modulus,
    _check_window,
    primes_upto,
    tau_k_segment,
    units,
)
from .characters import CharacterGroup
from .constants import PRIME_BOUND, ConstantValue, a_k_d, gamma_eval
from .weights import _CUTOFFS

__all__ = [
    "SIEVE_BUDGET",
    "CUTOFFS",
    "ClassSums",
    "VarianceReport",
    "compute_class_sums",
    "variance_direct",
    "variance_characters",
    "variance_primitive",
    "main_term",
    "experiment",
]

# Largest number of sieve entries a single variance call may stream.
SIEVE_BUDGET = 2**31

# The cutoffs the class sums weigh n by, named as in weights._CUTOFFS.
CUTOFFS = tuple(_CUTOFFS)

# Sieve entries per second, for cost estimates in error messages: the
# median desk-probe.arith.sieve_mentries_per_s of the two traced runs of
# the change in BENCH_18.json (83.6 M/s, calls of about 2^20 entries, one
# worker on a 2-CPU machine, numpy 2.4).
_SIEVE_RATE = 8.36e7

# Cells per row block of a segment's class sums: the block's buffers stay in cache.
_BLOCK = 1 << 16

# Entries per sieve call of a segment's class sums, 2^20: the sieve's uint16
# cells of one call fill its L2 budget.
_CALL = _L2 // 2


@dataclass(frozen=True)
class ClassSums:
    """Per-unit-class weighted tau_k sums for one (k, d, X, cutoff) choice."""

    k: int
    d: int
    x: float
    cutoff: str
    units: np.ndarray  # sorted unit residues mod d
    sums: np.ndarray  # float64, aligned with units
    weight_id: Optional[str]

    @property
    def total(self) -> float:
        return math.fsum(self.sums.tolist())


def _segment_task(args) -> np.ndarray:
    """Sums of one sieve segment over every residue class mod d, units or not,
    each n weighed by the cutoff's weight object at X = x; top-level so
    worker pools can pickle it.  The segment is summed in blocks of whole
    rows of about 2^16 cells, or one row of d cells when d is wider, and
    sieved in calls of whole blocks, about 2^20 entries, at least one block
    and at most the segment; a call's cells are dropped before the next."""
    (k, lo, hi, d, x, weight, primes) = args
    # The window lies row by row in a (rows, d) grid that starts at the row
    # of lo: column j holds the n = j mod d in ascending order.  It is walked
    # in blocks of whole rows, each cast into rows 1.. of one buffer whose
    # row 0 holds the running class sums; cells outside the window stay 0.
    # rows per block: about _BLOCK cells, at least one row, at most the window's
    rows = max(1, min(_BLOCK // d, -(-(lo % d + hi - lo) // d)))
    # grid cells per sieve call: whole blocks, about _CALL of them
    call = rows * d * max(1, _CALL // (rows * d))
    # The class sums are made after the first sieve call, so not beside its
    # peak.  The buffer is made before it: made after, malloc placed it among
    # the sieve's freed arrays, and desk-probe's peak RSS rose from 39.6 to
    # 46.2 MB in 5 of 6 runs (2 workers).
    buf = np.zeros((rows + 1) * d)
    sums = None
    for c_lo in range(lo - lo % d, hi, call):
        first, c_hi = max(c_lo, lo), min(c_lo + call, hi)
        # The sieve keeps tau below 2^62, so its int64 view casts to float64
        # exactly, and faster than uint64 does.
        tau = tau_k_segment(k, first, c_hi, _primes=primes).values.view(np.int64)
        if sums is None:
            sums = np.zeros(d)
        for b_lo in range(c_lo, c_hi, rows * d):
            a, b = max(b_lo, lo), min(b_lo + rows * d, hi)
            block = buf[: d * (1 + -(-(b - b_lo) // d))]
            block[:d] = sums
            block[d + b - b_lo :] = 0.0  # the tail of the last row
            window = block[d + a - b_lo : d + b - b_lo]
            weight.weigh(a, b, x, tau[a - first : b - first], window)
            # Summing the rows one after another adds each class in ascending n,
            # as bincount does; numpy would sum a lone column (d = 1) pairwise
            # instead, so that one takes the running sum.
            if d > 1:
                block.reshape(-1, d).sum(axis=0, out=sums)
            else:
                sums[0] = np.cumsum(block, out=block)[-1]
        # the next call's cells replace this one's rather than join them
        del tau
    return sums


def _check_point(d: int, cutoff: str, workers: int) -> None:
    """The modulus, cutoff and worker-count rules, one message each, for
    class sums, experiment() and sweep configs alike."""
    _check_modulus(d)
    if cutoff not in CUTOFFS:
        raise ValueError(f"cutoff must be {' or '.join(map(repr, CUTOFFS))}, got {cutoff!r}")
    if not isinstance(workers, _INTEGERS) or workers < 1:
        raise ValueError(f"workers must be positive and an integer, got {workers}")


def _class_sum_range(d: int, x: float, cutoff: str, workers: int) -> Tuple[object, int, int]:
    """Check compute_class_sums' arguments, before any work; return the cutoff's
    weight object and [lo, hi), the n in (a X, b X] for its support (a, b]."""
    _check_point(d, cutoff, workers)
    if not (math.isfinite(x) and x >= 1.0):
        raise ValueError(f"X must be finite and >= 1, got {x}")
    # Built here, in the argument check, so the bump is cached in the main
    # process before a sweep's pool forks: a worker inherits it (0.03 ms)
    # rather than building it cold (1.9 ms).  Reading the support unbuilt
    # saved 0.5 MB of main-process RSS but slowed sweep-mc.
    weight = _CUTOFFS[cutoff]()
    lo, hi = (int(math.floor(s * x)) + 1 for s in weight.support)
    if hi - lo > SIEVE_BUDGET:
        est = (hi - lo) / _SIEVE_RATE
        raise ValueError(
            f"range of {hi - lo} entries exceeds the sieve budget {SIEVE_BUDGET} "
            f"(estimated {est:.0f} s of sieving); reduce X or raise SIEVE_BUDGET"
        )
    return weight, lo, hi


def _point_x(d: int, c: float, cutoff: str, workers: int) -> float:
    """X = d^c, its class-sum arguments checked: experiment() and each sweep
    point call it before any work.  An X beyond the float range, or 0^c with
    c < 0, is inf, which the check rejects."""
    try:
        x = float(d) ** c
    except (OverflowError, ZeroDivisionError):
        x = math.inf
    _class_sum_range(d, x, cutoff, workers)
    return x


def compute_class_sums(
    k: int,
    d: int,
    x: float,
    cutoff: str,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> ClassSums:
    """Stream tau_k segments once and accumulate the per-class sums, each n
    of the cutoff's support weighed by its weight object (`tauvar.weights`).

    Windows of segment_size <= 2^22 entries may be sieved concurrently
    (workers > 1); partial class vectors are merged in ascending order with
    Kahan compensation, so the result is bit-identical for any worker count.
    """
    _check_k(k)
    _check_window(segment_size)
    weight, lo, hi = _class_sum_range(d, x, cutoff, workers)
    primes = primes_upto(math.isqrt(hi - 1))
    tasks = [
        (k, s_lo, min(s_lo + segment_size, hi), d, x, weight, primes)
        for s_lo in range(lo, hi, segment_size)
    ]
    acc = np.zeros(d, dtype=np.float64)
    comp = np.zeros(d, dtype=np.float64)
    parallel = workers > 1 and len(tasks) > 1
    # pool.map yields in task order, so both paths merge in ascending segment order
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        for part in (pool.map if parallel else map)(_segment_task, tasks):
            # Kahan step, elementwise per class
            y = part - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
    us = units(d)
    return ClassSums(
        k=k,
        d=d,
        x=x,
        cutoff=cutoff,
        units=us,
        sums=acc[us],
        weight_id=weight.weight_id,
    )


def _route_class_sums(
    k: int, d: int, x: float, cutoff: str, class_sums: Optional[ClassSums]
) -> ClassSums:
    """The class sums a variance route works on: the given ones, which must
    have been built for (k, d, x, cutoff), or freshly computed ones."""
    if class_sums is None:
        return compute_class_sums(k, d, x, cutoff)
    built_for = (class_sums.k, class_sums.d, class_sums.x, class_sums.cutoff)
    if built_for != (k, d, x, cutoff):
        raise ValueError(
            f"class sums were built for (k, d, x, cutoff) = {built_for}, "
            f"not {(k, d, x, cutoff)}"
        )
    return class_sums


def _deviations(cs: ClassSums) -> np.ndarray:
    """S_a minus the mean; every nonprincipal character sums the mean to zero."""
    return cs.sums - cs.total / cs.sums.size


def variance_direct(
    k: int,
    d: int,
    x: float,
    cutoff: str,
    *,
    class_sums: Optional[ClassSums] = None,
) -> float:
    """sum over units a of |S_a - (1/phi) sum S_a|^2, from the class sums."""
    cs = _route_class_sums(k, d, x, cutoff, class_sums)
    dev = _deviations(cs)
    return float(np.dot(dev, dev))


def variance_characters(
    k: int,
    d: int,
    x: float,
    cutoff: str,
    *,
    class_sums: Optional[ClassSums] = None,
) -> float:
    """(1/phi(d)) sum over nonprincipal chi of |sum_n tau_k(n) chi(n) omega(n)|^2.

    chi is constant on residue classes, so the inner sum is the character
    transform of the class sums.  One FFT over the exponent grid gives it for
    every chi; the deviations from the mean stand in for S_a, which leaves
    each nonprincipal term unchanged and zeroes the principal one, skipped.
    """
    cs = _route_class_sums(k, d, x, cutoff, class_sums)
    group = CharacterGroup(d)
    power = np.abs(group.transform(cs.units, _deviations(cs))) ** 2
    return float(np.sum(power.ravel()[1:])) / group.phi


def variance_primitive(
    k: int,
    d: int,
    x: float,
    cutoff: str,
    *,
    class_sums: Optional[ClassSums] = None,
) -> float:
    """(1/phi(d)) sum over d = q r, q > 1, and primitive chi1 mod q of
    |sum_{(n,r)=1} tau_k(n) chi1(n) omega(n)|^2.

    Terms with gcd(n, q) > 1 vanish through chi1, so the inner sum again
    reduces to unit classes mod d.  One group mod d gives the squares for
    every q: one FFT per q over the prime-power logs shared by all q | d.
    """
    cs = _route_class_sums(k, d, x, cutoff, class_sums)
    powers = CharacterGroup(d).primitive_powers(cs.units, _deviations(cs))
    total = 0.0
    for power in powers.values():
        total += float(np.sum(power))
    return total / cs.sums.size


def main_term(
    k: int,
    d: int,
    c: float,
    *,
    gamma_method: str = "simple",
    mc_samples: int = 10**6,
    mc_seed: int = 1,
) -> float:
    """The conjectural leading term a_k(d) gamma_k(c) d^c (log d)^(k^2 - 1)."""
    gamma = gamma_eval(k, c, gamma_method, mc_samples=mc_samples, mc_seed=mc_seed)
    return _leading_term(k, d, float(d) ** c, a_k_d(k, d), gamma)


def _leading_term(k: int, d: int, x: float, akd: ConstantValue, gamma: ConstantValue) -> float:
    """a_k(d) gamma_k(c) X (log d)^(k^2 - 1) from its evaluated constants, X = d^c.

    At d = 1 there is a single class and no variance, so the term is 0.0
    (the formula would give (log 1)^0 = 1 for k = 1).
    """
    if d == 1:
        return 0.0
    return akd.value * gamma.value * x * math.log(d) ** (k * k - 1)


@dataclass(frozen=True)
class VarianceReport:
    """One experiment: measured variance, conjectural main term, provenance.

    wall_time_s is the point's own time.  From experiment() it covers the
    whole call, constants included.  In a sweep, whose constants are
    evaluated once per distinct key and shared by the points (see sweep.py),
    it leaves those shared constants out.  prime_bound and segment_size are
    fixed echoes of the library: a_k's Euler-product truncation,
    constants.PRIME_BOUND, and the sieve window, arith.DEFAULT_SEGMENT_SIZE.
    """

    k: int
    d: int
    c: float
    x: float
    cutoff: str
    weight_id: Optional[str]
    variance: float
    main_term: float
    ratio: Optional[float]
    a_k_d_value: float
    a_k_d_error: float
    prime_bound: int = field(default=PRIME_BOUND, init=False)
    gamma_method: str
    gamma_value: float
    gamma_error: float
    gamma_params: Dict[str, object]
    wall_time_s: float
    segment_size: int = DEFAULT_SEGMENT_SIZE
    code_version: str = __version__

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def experiment(
    k: int,
    d: int,
    c: float,
    cutoff: str = "smooth",
    gamma_method: str = "simple",
    *,
    mc_samples: int = 10**6,
    mc_seed: int = 1,
    workers: int = 1,
) -> VarianceReport:
    """Measure the variance at X = d^c and compare with the conjectural term.

    Deterministic given the configuration: re-running reproduces every field
    except wall_time_s, for any worker count.
    """
    start = time.perf_counter()
    x = _point_x(d, c, cutoff, workers)
    k = _check_k(k)
    gamma = gamma_eval(k, c, gamma_method, mc_samples=mc_samples, mc_seed=mc_seed)
    akd = a_k_d(k, d)
    return _report(k, d, c, x, cutoff, gamma_method, akd, gamma, workers, start)


def _report(
    k: int,
    d: int,
    c: float,
    x: float,
    cutoff: str,
    gamma_method: str,
    akd: ConstantValue,
    gamma: ConstantValue,
    workers: int,
    start: float,
) -> VarianceReport:
    """One point's report at X from its evaluated constants: the one builder
    behind experiment() and every sweep point.  wall_time_s runs from `start`."""
    cs = compute_class_sums(k, d, x, cutoff, workers=workers)
    var = variance_direct(k, d, x, cutoff, class_sums=cs)
    mt = _leading_term(k, d, x, akd, gamma)
    ratio = var / mt if mt > 0 else None
    return VarianceReport(
        k=k,
        d=d,
        c=c,
        x=x,
        cutoff=cutoff,
        weight_id=cs.weight_id,
        variance=var,
        main_term=mt,
        ratio=ratio,
        a_k_d_value=akd.value,
        a_k_d_error=akd.error_estimate,
        gamma_method=gamma_method,
        gamma_value=gamma.value,
        gamma_error=gamma.error_estimate,
        gamma_params=dict(gamma.params),
        wall_time_s=time.perf_counter() - start,
    )
