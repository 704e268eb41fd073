"""Constants of the conjectural variance main term a_k(d) gamma_k(c) X (log d)^(k^2-1).

Pieces:
- local Euler factors L_p(k) = sum_j tau_k(p^j)^2 p^(-j), in closed form
  (1 - 1/p)^-(2k-1) * sum_{j<k} C(k-1,j)^2 p^(-j) and as a direct series;
- a_k as a truncated Euler product with a conservative tail estimate, and
  a_k(d) = a_k / prod_{p | d} L_p(k);
- gamma_k(c): the closed form (k-c)^(k^2-1)/(k^2-1)! on [k-1, k), the exact
  three-branch degree-8 piecewise polynomial for k = 3, and a stratified
  Monte-Carlo evaluator of the Vandermonde-squared integral on the simplex
  slice {w in [0,1]^k : sum w = c};
- the moment constants g_k = (k^2)! prod_{j<k} j!/(j+k)! and the exact
  rational check k^2! int_0^k gamma_k = g_k for k <= 3.

All rational arithmetic is exact (fractions.Fraction).  Monte Carlo splits
the strata into chunks of about 2^21 coordinates, each drawn from a Philox
stream keyed by (seed, chunk index), so (k, c, samples, seed) fix every bit.
A chunk is evaluated in blocks of about 2^14 points whose arrays fit one
core's L2; blocks read the chunk's stream in order, and each cell's mean and
variance land in per-chunk arrays that are summed once per chunk, so the
block size changes no bit and no array grows with the sample count.  The
draws do not depend on c, so one pass draws each block once for every c of
a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .arith import _INTEGERS, _L2, _check_k, _check_modulus, divisors, euler_phi, factorize, phi_star, primes_upto
from .specfun import barnes_g

__all__ = [
    "ConstantValue",
    "PiecewisePolynomial",
    "GAMMA2_PIECEWISE",
    "GAMMA3_PIECEWISE",
    "local_factor",
    "local_factor_series",
    "PRIME_BOUND",
    "a_k_value",
    "a_k_d",
    "gamma_k_simple",
    "GAMMA_METHODS",
    "check_gamma_domain",
    "gamma_eval",
    "gamma_k_mc",
    "g_k",
    "gamma_integral_check",
    "convolution_compare",
]

# The one truncation of a_k's Euler product that a_k(d), the main term,
# experiment(), sweeps and the CLI use; VarianceReport.prime_bound echoes it.
PRIME_BOUND = 10**6
# local_factor_series stops once its tail bound is this share of the sum.
_SERIES_REL_TAIL = 1e-15
_MC_MIN_SAMPLES = 10**4
_MC_MAX_K = 5
# Points per block of gamma_k_mc, 2^14: a block's float64 arrays, about
# 2k + 4 of them, fit the sieve's budget of one core's L2.
_MC_BLOCK = _L2 // 128
_FACT8 = factorial(8)


@dataclass(frozen=True)
class ConstantValue:
    """A computed constant with method tag, error estimate and provenance."""

    value: float
    method: str  # euler-product | closed-form | monte-carlo | piecewise
    error_estimate: float
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.error_estimate >= 0.0 and math.isfinite(self.error_estimate)):
            raise ValueError(f"error estimate must be finite and >= 0, got {self.error_estimate}")


def _require_prime(p: int) -> None:
    if factorize(p).factors != ((p, 1),):
        raise ValueError(f"p = {p} is not prime")


def local_factor(k: int, p: int, s: float = 1.0, exact: bool = False):
    """L_p(k) at s: (1 - p^-s)^-(2k-1) * sum_{j=0}^{k-1} C(k-1,j)^2 p^(-js).

    s = 1 is the value entering a_k(d); integer s with exact=True returns a
    Fraction.  local_factor_series is the independent direct-series route.
    """
    k = _check_k(k)
    _require_prime(p)
    if exact:
        if s != int(s):
            raise ValueError("exact evaluation needs integer s")
        ps = Fraction(p) ** int(s)
        poly = sum(Fraction(comb(k - 1, j) ** 2, 1) / ps**j for j in range(k))
        return (1 - 1 / ps) ** (-(2 * k - 1)) * poly
    ps = float(p) ** s
    poly = sum(comb(k - 1, j) ** 2 / ps**j for j in range(k))
    return (1.0 - 1.0 / ps) ** (-(2 * k - 1)) * poly


def local_factor_series(k: int, p: int, s: float = 1.0) -> float:
    """Direct series sum_j tau_k(p^j)^2 p^(-js), truncated at a relative tail.

    tau_k(p^j) = C(k+j-1, k-1) grows polynomially in j, so the tail beyond j
    is below a geometric bound; truncation stops once that bound is a
    _SERIES_REL_TAIL fraction of the partial sum.
    """
    k = _check_k(k)
    _require_prime(p)
    ps = float(p) ** s
    total = 0.0
    j = 0
    while True:
        term = comb(k + j - 1, k - 1) ** 2 / ps**j
        total += term
        # ratio of consecutive terms tends to 1/p^s; bound the tail once the
        # binomial growth factor is safely below sqrt(p^s)
        growth = ((k + j) / (j + 1)) ** 2
        if growth < ps * 0.999 and j > 2 * k:
            tail_bound = term * (growth / ps) / (1.0 - growth / ps)
            if tail_bound < _SERIES_REL_TAIL * total:
                return total
        j += 1


def a_k_value(k: int, prime_bound: int = PRIME_BOUND) -> ConstantValue:
    """a_k = prod_p (1-1/p)^((k-1)^2) sum_{j<k} C(k-1,j)^2 p^(-j), over p <= prime_bound.

    Each omitted factor is 1 + O(k^4 / p^2); the reported error bounds the
    log of the omitted product by k^4 * sum_{p > bound} p^-2 <= k^4 / bound.
    Every other caller takes PRIME_BOUND; the verify suites and tests vary it.
    """
    k = _check_k(k)
    if prime_bound < 10**3:
        raise ValueError(f"prime_bound must be >= 1000, got {prime_bound}")
    if k == 1:
        return ConstantValue(1.0, "euler-product", 0.0, {"prime_bound": prime_bound})
    ps = primes_upto(prime_bound).astype(np.float64)
    logs = (k - 1) ** 2 * np.log1p(-1.0 / ps)
    poly = np.zeros_like(ps)
    for j in range(k):
        poly += comb(k - 1, j) ** 2 / ps**j
    logs = logs + np.log(poly)
    value = math.exp(float(logs.sum()))
    tail_log = float(k) ** 4 / prime_bound
    err = value * math.expm1(tail_log)
    return ConstantValue(value, "euler-product", err, {"prime_bound": prime_bound})


def a_k_d(k: int, d: int) -> ConstantValue:
    """a_k(d) = a_k / prod_{p | d} L_p(k): drop the Euler factors at p | d."""
    return _drop_local_factors(a_k_value(k), k, d)


def _drop_local_factors(ak: ConstantValue, k: int, d: int) -> ConstantValue:
    """a_k(d) from an evaluated a_k, so callers that share a_k across d
    (the sweep, convolution_compare) divide out the same factors as a_k_d."""
    d = _check_modulus(d)
    scale = 1.0
    for p, _ in factorize(d).factors:
        scale /= local_factor(k, p)
    return ConstantValue(
        ak.value * scale,
        "euler-product",
        ak.error_estimate * scale,
        {"prime_bound": ak.params["prime_bound"], "d": d},
    )


def gamma_k_simple(k: int, c: float) -> float:
    """gamma_k(c) = (k - c)^(k^2 - 1) / (k^2 - 1)! on its validity range [k-1, k)."""
    _check_simple_domain(k, c)
    return (k - c) ** (k * k - 1) / factorial(k * k - 1)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Branches (lo, hi, coeffs ascending) with exact rational coefficients."""

    branches: Tuple[Tuple[Fraction, Fraction, Tuple[Fraction, ...]], ...]

    def branch_for(self, c: Fraction) -> Tuple[Fraction, ...]:
        last = len(self.branches) - 1
        for i, (lo, hi, coeffs) in enumerate(self.branches):
            if lo <= c < hi or (i == last and c == hi):
                return coeffs
        raise ValueError(f"c = {c} outside the support [{self.branches[0][0]}, {self.branches[-1][1]}]")

    def eval_exact(self, c: Fraction) -> Fraction:
        coeffs = self.branch_for(Fraction(c))
        acc = Fraction(0)
        for a in reversed(coeffs):
            acc = acc * c + a
        return acc

    def eval_float(self, c: float) -> float:
        # exact rational Horner with one final rounding; the expanded branch
        # polynomials cancel catastrophically near their roots in plain float
        return float(self.eval_exact(Fraction(c)))

    def integral(self) -> Fraction:
        """Exact integral over the full support."""
        total = Fraction(0)
        for lo, hi, coeffs in self.branches:
            for i, a in enumerate(coeffs):
                total += a * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
        return total


def _frac_coeffs(int_coeffs: Sequence[int], denom: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(a, denom) for a in int_coeffs)


# gamma_2: c^3/6 on [0,1), (2-c)^3/6 on [1,2]
GAMMA2_PIECEWISE = PiecewisePolynomial(
    branches=(
        (Fraction(0), Fraction(1), _frac_coeffs([0, 0, 0, 1], 6)),
        (Fraction(1), Fraction(2), _frac_coeffs([8, -12, 6, -1], 6)),
    )
)

# gamma_3: the explicit three-branch degree-8 polynomial over 8!
GAMMA3_PIECEWISE = PiecewisePolynomial(
    branches=(
        (Fraction(0), Fraction(1), _frac_coeffs([0, 0, 0, 0, 0, 0, 0, 0, 1], _FACT8)),
        (
            Fraction(1),
            Fraction(2),
            _frac_coeffs([-927, 4392, -8484, 8568, -4830, 1512, -252, 24, -2], _FACT8),
        ),
        # (3 - c)^8 expanded
        (
            Fraction(2),
            Fraction(3),
            _frac_coeffs(
                [6561, -17496, 20412, -13608, 5670, -1512, 252, -24, 1], _FACT8
            ),
        ),
    )
)

_GAMMA_PIECEWISE: Dict[int, PiecewisePolynomial] = {
    2: GAMMA2_PIECEWISE,
    3: GAMMA3_PIECEWISE,
}


def _check_simple_domain(k: int, c: float) -> None:
    _check_k(k)
    if not (k - 1 <= c < k):
        raise ValueError(f"gamma method 'simple' needs c in [k-1, k) = [{k - 1}, {k}), got c = {c}")


def _vandermonde_sq(w: Sequence[np.ndarray]) -> np.ndarray:
    """prod_{i<j} (w_i - w_j)^2 over the coordinate arrays w_0, ..., w_(k-1)."""
    pairs = combinations(w, 2)
    wi, wj = next(pairs)
    d = wi - wj
    for wi, wj in pairs:
        d *= wi - wj
    return d * d


# The gamma_k evaluators gamma_eval dispatches to, by name.
GAMMA_METHODS = ("simple", "piecewise", "mc")


def _check_gamma_method(method: str) -> None:
    """The domain rule's first step; sweep configs run it even without points."""
    if method not in GAMMA_METHODS:
        raise ValueError(f"unknown gamma method {method!r}; use one of {', '.join(GAMMA_METHODS)}")


def check_gamma_domain(k: int, c: float, method: str, samples: int, seed: int) -> int:
    """Raise ValueError unless `method` can evaluate gamma_k(c) with these Monte
    Carlo settings: the one rule for gamma_eval, gamma_k_mc and sweep configs.
    Returns k as `_check_k` does."""
    _check_gamma_method(method)
    k = _check_k(k)
    if method == "simple":
        _check_simple_domain(k, c)
    elif method == "piecewise":
        if k != 3:
            raise ValueError("the explicit piecewise table is only available for k = 3")
        if not (0.0 <= c <= 3.0):
            raise ValueError(f"gamma method 'piecewise' needs c in [0, 3], got c = {c}")
    else:
        if not (1 <= k <= _MC_MAX_K):
            raise ValueError(f"k = {k} outside the Monte-Carlo range 1..{_MC_MAX_K}")
        if not (0.0 < c < float(k)):
            raise ValueError(f"c = {c} outside (0, {k})")
        for name, value in (("samples", samples), ("seed", seed)):
            if not isinstance(value, _INTEGERS):
                raise ValueError(f"{name} = {value!r} is not an integer")
        if k == 1:
            return k  # gamma_1 = 1 on (0, 1) takes no samples
        if samples < _MC_MIN_SAMPLES:
            raise ValueError(f"samples = {samples} below the floor {_MC_MIN_SAMPLES}")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed = {seed} outside the Philox key range 0..2^64 - 1")
    return k


def gamma_eval(
    k: int, c: float, method: str = "simple", *, mc_samples: int = 10**6, mc_seed: int = 1,
    _mc_pass: Optional[Dict[float, ConstantValue]] = None,
) -> ConstantValue:
    """gamma_k(c) by the requested method, with provenance.  Under mc, a
    _gamma_mc_pass already made at these settings over c among others (a
    sweep's, one per k) is read rather than made again."""
    k = check_gamma_domain(k, c, method, mc_samples, mc_seed)
    if method == "simple":
        return ConstantValue(gamma_k_simple(k, c), "closed-form", 0.0, {})
    if method == "piecewise":
        return ConstantValue(GAMMA3_PIECEWISE.eval_float(float(c)), "piecewise", 0.0, {})
    return gamma_k_mc(k, c, mc_samples, mc_seed) if _mc_pass is None else _mc_pass[c]


def gamma_k_mc(k: int, c: float, samples: int, seed: int) -> ConstantValue:
    """Stratified Monte Carlo for gamma_k(c) from the Vandermonde integral.

    The Dirac constraint is integrated out against the last coordinate:
    gamma_k(c) = (1/(k! G(k+1)^2)) * int_{[0,1]^(k-1)}
                 Delta(u, c - sum u)^2 [c - sum u in [0,1]] du.
    Sampling is uniform per cell of an m^(k-1) grid (m chosen so cells hold
    ~256 points), which keeps the estimator unbiased while suppressing the
    indicator-boundary variance; the reported standard error is the exact
    stratified-sampling formula.  The chunk layout (about 2^21 coordinates
    per chunk) and each chunk's Philox key (seed, chunk index) are fixed by
    (k, samples, seed); blocks of about _MC_BLOCK points read each chunk's
    stream in order, so the result is bit-reproducible and the memory is
    bounded whatever the sample count.  It is the one-c case of
    _gamma_mc_pass, which a sweep makes once per k for all its c.
    """
    return _gamma_mc_pass(k, (c,), samples, seed)[c]


def _gamma_mc_pass(
    k: int, cs: Sequence[float], samples: int, seed: int
) -> Dict[float, ConstantValue]:
    """gamma_k_mc(k, c, samples, seed) for every c of cs, from one pass over
    the chunks' Philox streams.  The draws and the cells' coordinates do not
    depend on c, so each block is drawn once and each c runs its own
    operations on it in gamma_k_mc's order, which keeps every c's bits."""
    for c in cs:
        k = check_gamma_domain(k, c, "mc", samples, seed)
    if k == 1:
        # empty Vandermonde: gamma_1 = 1 on (0,1), no sampling needed
        return {c: ConstantValue(1.0, "monte-carlo", 0.0, {"samples": 0, "seed": seed}) for c in cs}
    dim = k - 1
    norm = 1.0 / (factorial(k) * barnes_g(k + 1) ** 2)
    m = max(1, int(round((samples / 256.0) ** (1.0 / dim))))
    ncells = m**dim
    n_c = max(2, -(-samples // ncells))
    cells_chunk = max(1, (1 << 21) // (n_c * k))
    cells_block = max(1, _MC_BLOCK // n_c)
    mean_acc = [0.0] * len(cs)
    var_acc = [0.0] * len(cs)
    n_chunks = 0
    for start in range(0, ncells, cells_chunk):
        stop = min(start + cells_chunk, ncells)
        rng = np.random.Generator(
            np.random.Philox(key=(np.uint64(seed), np.uint64(n_chunks)))
        )
        # per-cell means and variances, one row per c, summed once per chunk
        means = np.empty((len(cs), stop - start))
        variances = np.empty((len(cs), stop - start))
        for lo in range(start, stop, cells_block):
            hi = min(lo + cells_block, stop)
            u = rng.random((hi - lo, n_c, dim))
            # one contiguous array per axis; axis dim - 1 is the cell's lowest digit
            cell = np.arange(lo, hi)[:, None]
            w = [
                ((cell // m ** (dim - 1 - axis) % m).astype(np.float64) + u[..., axis]) / m
                for axis in range(dim)
            ]
            # added left to right: the order is part of the estimator's bits
            w_sum = sum(w[1:], w[0])
            for i, c in enumerate(cs):
                w_last = c - w_sum
                # y = d * d >= +0, so times the 0/1 indicator it is +0.0 off the slice
                y = _vandermonde_sq(w + [w_last])
                y *= (w_last >= 0.0) & (w_last <= 1.0)
                y.mean(axis=1, out=means[i, lo - start : hi - start])
                y.var(axis=1, ddof=1, out=variances[i, lo - start : hi - start])
        for i in range(len(cs)):
            mean_acc[i] += float(means[i].sum())
            var_acc[i] += float((variances[i] / n_c).sum())
        n_chunks += 1
    params = {
        "samples": ncells * n_c,
        "requested": samples,
        "seed": seed,
        "strata_per_dim": m,
        "chunks": n_chunks,
    }
    return {
        c: ConstantValue(
            norm * mean / ncells, "monte-carlo", norm * math.sqrt(var) / ncells, dict(params)
        )
        for c, mean, var in zip(cs, mean_acc, var_acc)
    }


def g_k(k: int) -> Fraction:
    """g_k = (k^2)! prod_{j=0}^{k-1} j! / (j+k)!, exactly (g_3 = 42)."""
    if not (1 <= k <= 10):
        raise ValueError(f"k = {k} outside the supported range 1..10")
    out = Fraction(factorial(k * k))
    for j in range(k):
        out *= Fraction(factorial(j), factorial(j + k))
    return out


def gamma_integral_check(k: int) -> Fraction:
    """|k^2! * int_0^k gamma_k(c) dc - g_k|, exact for k in {1, 2, 3}."""
    if k == 1:
        integral = Fraction(1)  # gamma_1 = 1 on (0, 1)
    elif k in _GAMMA_PIECEWISE:
        integral = _GAMMA_PIECEWISE[k].integral()
    else:
        raise ValueError(f"exact integral table only covers k <= 3, got {k}")
    return abs(factorial(k * k) * integral - g_k(k))


def convolution_compare(k: int, d: int) -> Tuple[float, float, float]:
    """Both sides of the average (1/phi(d)) sum_{d=qr} phi_star(q) a_k(r) vs a_k(d).

    The two sides agree only asymptotically (the gap at prime d is of order
    1/d), so they are returned as (lhs, rhs, relative gap) with no equality
    assertion.
    """
    d = _check_modulus(d)
    qs = divisors(d)
    if len(qs) > 10**4:
        raise ValueError(f"d = {d} has too many divisors for the comparison")
    ak = a_k_value(k)
    lhs = 0.0
    for q in qs:
        lhs += phi_star(q) * _drop_local_factors(ak, k, d // q).value
    lhs /= euler_phi(d)
    rhs = _drop_local_factors(ak, k, d).value
    gap = abs(lhs - rhs) / abs(rhs)
    return lhs, rhs, gap
