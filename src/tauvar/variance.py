"""Variance of tau_k over reduced residue classes, three equivalent ways.

The engine streams sieve segments once, accumulating for each unit class a
mod d the weighted sum  S_a = sum_{n = a (d)} tau_k(n) omega(n)  with
omega(n) = [n <= X] (sharp) or w(n/X) (smooth, w the bump on [1,2]).  The
variance sum_a* |S_a - mean|^2 is then formed three ways:

- directly from the class deviations;
- as (1/phi(d)) sum over nonprincipal characters of |sum_a chi(a) S_a|^2;
- as (1/phi(d)) sum over factorizations d = q r with q > 1 and primitive
  characters mod q of the same square (character induction identity).

Both character routes take one FFT of the deviations S_a - mean over the
exponent grid (`CharacterGroup.transform`); the primitive route folds them
mod each q | d and keeps the entries of conductor q.  All three are exact
algebra over the same class sums, so agreement to near machine precision is
a strong check of the character machinery.

The cutoff is decoded once per call into the weight every segment carries:
the fixed bump normalized to int w^2 = 1 (`make_bump_weight`) for the smooth
cutoff, and none for the sharp one, whose [n <= X] is the sieved range
itself.  Each segment casts its tau values into a zero-padded (rows, d)
grid, column j holding the n = j mod d, multiplies the weight in there, if
any, and sums the rows in order, so every class adds in ascending n.
Class sums are merged across segments in ascending order with Kahan
compensation, which makes every result independent of the worker count.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ._version import __version__
from .arith import DEFAULT_SEGMENT_SIZE, _check_window, divisors, primes_upto, tau_k_segment, units
from .characters import CharacterGroup
from .constants import ConstantValue, a_k_d, gamma_eval
from .weights import make_bump_weight

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

# The cutoffs the class sums weigh n by: [n <= X], or w(n/X) with the bump w.
CUTOFFS = ("sharp", "smooth")

# Sieve entries per second, for cost estimates in error messages: the
# median desk-probe.arith.sieve_mentries_per_s of the four traced runs in
# BENCH_11.json (41.4 M/s, 2^22 windows, one worker on a 2-CPU machine,
# numpy 2.4).
_SIEVE_RATE = 4.14e7


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
    each n weighed by weight(n / x), or by 1 when weight is None; top-level
    so worker pools can pickle it."""
    (k, lo, hi, d, x, weight, primes) = args
    # The window, row by row in a zero-padded (rows, d) grid: column j holds
    # the n = j mod d in ascending order.  The sieve keeps tau below 2^62, so
    # its int64 view casts to float64 exactly, and faster than uint64 does;
    # tau is dropped before the weight allocates.
    start = lo % d
    rows = -(-(start + hi - lo) // d)
    grid = np.zeros(rows * d)
    window = grid[start : start + hi - lo]
    tau = tau_k_segment(k, lo, hi, _primes=primes).values
    window[:] = tau.view(np.int64)
    del tau
    if weight is not None:
        y = np.arange(lo, hi, dtype=np.float64)  # exact: the budget keeps n < 2^33
        y /= x
        # w(y), evaluated in place in y, times float(tau): bincount's product
        window *= weight.values(y, out=y)
    # Summing the rows one after another adds each class in ascending n, as
    # bincount does; numpy would sum a lone column (d = 1) pairwise instead,
    # so that one takes the running sum.
    return grid.reshape(rows, d).sum(axis=0) if d > 1 else np.cumsum(grid)[-1:]


def _check_point(d: int, cutoff: str, workers: int) -> None:
    """The modulus, cutoff and worker-count rules, one message each, for
    class sums, experiment() and sweep configs alike."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    if cutoff not in CUTOFFS:
        raise ValueError(f"cutoff must be {' or '.join(map(repr, CUTOFFS))}, got {cutoff!r}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")


def _class_sum_range(d: int, x: float, cutoff: str, workers: int) -> Tuple[int, int]:
    """Check compute_class_sums' arguments, before any work, and return the
    half-open range [lo, hi) of n that the cutoff weighs."""
    _check_point(d, cutoff, workers)
    if not (math.isfinite(x) and x >= 1.0):
        raise ValueError(f"X must be finite and >= 1, got {x}")
    f = int(math.floor(x))
    lo, hi = (1, f + 1) if cutoff == "sharp" else (f + 1, int(math.floor(2.0 * x)) + 1)
    if hi - lo > SIEVE_BUDGET:
        est = (hi - lo) / _SIEVE_RATE
        raise ValueError(
            f"range of {hi - lo} entries exceeds the sieve budget {SIEVE_BUDGET} "
            f"(estimated {est:.0f} s of sieving); reduce X or raise SIEVE_BUDGET"
        )
    return lo, hi


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
    """Stream tau_k segments once and accumulate the per-class sums.

    The smooth cutoff weighs n by w(n/X), w the fixed L2-normalized bump of
    make_bump_weight(); the sharp cutoff by [n <= X].

    Windows of segment_size <= 2^22 entries may be sieved concurrently
    (workers > 1); partial class vectors are merged in ascending order with
    Kahan compensation, so the result is bit-identical for any worker count.
    """
    _check_window(segment_size)
    lo, hi = _class_sum_range(d, x, cutoff, workers)
    weight = make_bump_weight() if cutoff == "smooth" else None
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
        weight_id=None if weight is None else weight.weight_id,
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
    reduces to unit classes mod d.  The deviations folded mod q take one FFT
    over the characters mod q, and the entries of conductor q are kept.
    """
    cs = _route_class_sums(k, d, x, cutoff, class_sums)
    dev = _deviations(cs)
    total = 0.0
    for q in divisors(d)[1:]:
        group_q = CharacterGroup(q)
        power = np.abs(group_q.transform(cs.units % q, dev)) ** 2
        total += float(np.sum(power[group_q.conductors == q]))
    return total / cs.sums.size


def main_term(
    k: int,
    d: int,
    c: float,
    *,
    gamma_method: str = "simple",
    prime_bound: int = 10**6,
    mc_samples: int = 10**6,
    mc_seed: int = 1,
) -> float:
    """The conjectural leading term a_k(d) gamma_k(c) d^c (log d)^(k^2 - 1)."""
    gamma = gamma_eval(k, c, gamma_method, mc_samples=mc_samples, mc_seed=mc_seed)
    return _leading_term(k, d, float(d) ** c, a_k_d(k, d, prime_bound), gamma)


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
    it leaves those shared constants out.  segment_size records the sieve
    window, which every point takes from arith.DEFAULT_SEGMENT_SIZE.
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
    prime_bound: int
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
    prime_bound: int = 10**6,
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
    gamma = gamma_eval(k, c, gamma_method, mc_samples=mc_samples, mc_seed=mc_seed)
    akd = a_k_d(k, d, prime_bound)
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
        prime_bound=akd.params["prime_bound"],
        gamma_method=gamma_method,
        gamma_value=gamma.value,
        gamma_error=gamma.error_estimate,
        gamma_params=dict(gamma.params),
        wall_time_s=time.perf_counter() - start,
    )
