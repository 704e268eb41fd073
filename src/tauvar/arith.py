"""Exact multiplicative-function arithmetic.

Provides:
- integer factorization (trial division, 64-bit inputs), divisors, units mod d
- the k-fold divisor function tau_k, pointwise and as a segmented sieve
- Euler phi, Moebius mu, and phi_star (the count of primitive characters)
- generic Dirichlet convolution over the divisors of n

tau_k(n) is the number of ordered k-tuples with product n.  On prime powers
tau_k(p^j) = C(k+j-1, k-1), and tau_k is multiplicative, so every pointwise
value is a product of binomials over the prime factorization.  The segmented
sieve computes the same values in bulk with one strided pass per prime power
p^j: every p^j-th uint64 cell trades its factor tau_k(p^(j-1)) for tau_k(p^j),
an exact division and multiplication, and adds a rounded, scaled log2 p to a
uint8 log cell.  The powers 2^4, 3^2, 5 and 7 repeat with period 5040, so
they are sieved on the first 5040 cells only and copied across the window by
doubling; the passes go on from 2^5, 3^3, 5^2 and 7^2, and skip every prime
with no multiple in the window.  A log cell that ends short of log2 n marks
the one prime factor above sqrt(hi) the passes cannot reach; one multiply by
the uint8 factor 1 + (k - 1) [short] puts it in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt, log2
from typing import Callable, Iterator, List, Tuple

import numpy as np

__all__ = [
    "MAX_K",
    "MAX_N",
    "DEFAULT_SEGMENT_SIZE",
    "Factorization",
    "TauSegment",
    "factorize",
    "divisors",
    "units",
    "tau_k_of",
    "tau_k_segment",
    "tau_k_segments",
    "euler_phi",
    "moebius",
    "phi_star",
    "dirichlet_convolve",
    "primes_upto",
]

# tau_k values for k > 16 overflow 64-bit sieve cells routinely; keep the
# same bound on the pointwise path so both routes accept the same inputs.
MAX_K = 16
MAX_N = 2**63 - 1

# The sieve window of every variance point, and the widest any window may be:
# 2^22 entries keeps the working set cache-friendly and the memory bounded.
DEFAULT_SEGMENT_SIZE = 1 << 22

# The largest tau_k(n) the sieve returns: a factor 4 under the uint64 wrap.
_TAU_MAX = 2**62 - 1

# The sieve's wheel: prime -> exponent of 2^4 3^2 5 7, and that product.
_WHEEL_POWERS = {2: 4, 3: 2, 5: 1, 7: 1}
_WHEEL = 5040


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod p^e with p strictly increasing."""

    n: int
    factors: Tuple[Tuple[int, int], ...]

    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


@dataclass(frozen=True)
class TauSegment:
    """tau_k(n) for n in [lo, hi), exact unsigned 64-bit values."""

    k: int
    lo: int
    hi: int
    values: np.ndarray  # uint64, length hi - lo


def _check_k(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > MAX_K:
        raise ValueError(f"k = {k} exceeds the supported bound {MAX_K}")


def factorize(n: int) -> Factorization:
    """Canonical factorization of n, 1 <= n <= 2^63 - 1.

    factorize(1) has an empty factor list.  Trial division by 2, 3 and the
    6m+-1 wheel; adequate for the moduli and bounds this package targets,
    not for cryptographic-size inputs.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {type(n).__name__}")
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the supported bound 2^63 - 1")
    factors: List[Tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    while p * p <= m:
        for q in (p, p + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                factors.append((q, e))
        p += 6
    if m > 1:
        factors.append((m, 1))
    factors.sort()
    return Factorization(n=n, factors=tuple(factors))


def divisors(n: int) -> List[int]:
    """All divisors of n in increasing order."""
    ds = [1]
    for p, e in factorize(n).factors:
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def units(d: int) -> np.ndarray:
    """Sorted unit residues mod d (for d = 1 this is [0], the class of every n)."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    a = np.arange(d, dtype=np.int64)
    return a[np.gcd(a, d) == 1] if d > 1 else a


def tau_k_of(k: int, n: int) -> int:
    """Exact tau_k(n) as a product of binomials over prime powers.

    Python integers are unbounded, so the result is always exact.
    """
    _check_k(k)
    fac = factorize(n)
    out = 1
    for _, e in fac.factors:
        out *= comb(k + e - 1, k - 1)
    return out


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n as an int64 array (Eratosthenes)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _check_range(k: int, lo: int, hi: int) -> None:
    _check_k(k)
    if not (1 <= lo < hi):
        raise ValueError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi - 1 > MAX_N:
        raise ValueError(f"hi = {hi} exceeds the supported bound 2^63 - 1")


def _check_window(segment_size: int) -> None:
    """The one rule for a sieve window: 1..DEFAULT_SEGMENT_SIZE entries."""
    if not 1 <= segment_size <= DEFAULT_SEGMENT_SIZE:
        raise ValueError(
            f"segment_size must be positive and <= {DEFAULT_SEGMENT_SIZE}, got {segment_size}"
        )


def tau_k_segment(k: int, lo: int, hi: int, *, _primes: np.ndarray | None = None) -> TauSegment:
    """Sieve tau_k(n) for all n in [lo, hi), at most DEFAULT_SEGMENT_SIZE entries.

    Every n divisible by q = p^j has its factor tau_k(p^(j-1)) = C(k+j-2, k-1)
    divided out and tau_k(p^j) = C(k+j-1, k-1) multiplied in; both steps are
    exact in uint64 because the cell already holds that factor.  A uint8 log
    cell beside it sums a rounded, scaled log2 p on every hit; a cell whose
    sum falls short of log2 n keeps one prime factor > sqrt(hi), worth k.
    The powers 2^4, 3^2, 5 and 7 are sieved on the first 5040 cells and
    copied across the window, and only primes with a multiple in the window
    are walked; the products are exact, so their order changes no value.
    The result is independent of how a larger range is cut into segments.
    Windows whose values could reach 2^62 check the cells before each
    multiply and raise OverflowError rather than return a wrapped value.
    The cap on the width is fixed; tau_k_segments() streams wider ranges.
    """
    _check_range(k, lo, hi)
    if hi - lo > DEFAULT_SEGMENT_SIZE:
        raise ValueError(
            f"segment of {hi - lo} entries exceeds the cap {DEFAULT_SEGMENT_SIZE}; "
            f"use tau_k_segments() to stream larger ranges"
        )
    # prime powers past 2^63 meet lo in Python ints; a numpy k would turn
    # uint64 products into float64
    k, lo, hi = int(k), int(lo), int(hi)
    n = hi - lo
    ps = primes_upto(isqrt(hi - 1)) if _primes is None else _primes
    ps = ps[: np.searchsorted(ps, isqrt(hi - 1), side="right")]
    # a prime with no multiple in the window changes no cell
    ps = ps[(-lo) % ps < n]
    # tau_k(p^j) for j = 0..63 covers every exponent a 64-bit n can carry.
    binom = [comb(k + j - 1, k - 1) for j in range(64)]
    # tau_k(p^e) <= k^e, so tau_k(n) <= k^Omega(n) <= k^floor(log2(hi - 1)) on
    # the window.  Past _TAU_MAX, each multiply first checks its cells; as no
    # cell ever falls, the window raises exactly when some tau_k(n) >= 2^62.
    guarded = k ** ((hi - 1).bit_length() - 1) > _TAU_MAX
    # The log test.  Write n = f P, f the part of n made of sieved primes
    # (p^2 < hi) and P the rest: 1 or one prime with P^2 >= hi, as two such
    # would exceed n.  Every hit on p^j adds r(p) = round(s log2 p) to the
    # cell of n, which ends at c = sum over p^e || f of e r(p).  Each of the
    # Omega(f) <= log2 f hits is off by at most 1/2 (plus ~1e-13 of float
    # error in log2, ignored below), so |c - s log2 f| <= (log2 f) / 2.
    # - No wrap.  With B = bitlen(hi) and s = floor((480 - B) / 2B),
    #   c <= (s + 1/2) log2 f < (s + 1/2) B <= 240, for every 2 <= hi <= 2^63.
    # - No flip.  With L = log2 hi,
    #     P = 1:  c >= s log2 n - (log2 n) / 2 > s log2 n - L/2,
    #     P > 1:  log2 P >= L/2 and log2 f <= L/2, so c <= s log2 n - sL/2 + L/4.
    #   The threshold is constant on slices [a, b) of the window with
    #   (b - 1) / a <= 9/8, over which s log2 n moves by delta <= s log2(9/8).
    #   There the P = 1 cells are >= s log2 a - L/2 and the P > 1 cells are
    #   <= s log2(b - 1) - sL/2 + L/4, a gap of (s/2 - 3/4) L - delta.  The
    #   threshold t is its midpoint rounded, and with L >= B - 1 every bit
    #   length B = 2..64 leaves at least ((s/2 - 3/4)(B - 1) - delta)/2 - 1/2
    #   >= 18 units between t and either side (18.8 at B = 2, s = 119; 19.1
    #   at B = 54, the first with s = 3).  So c < t exactly when P > 1.
    bits = hi.bit_length()
    scale = (480 - bits) // (2 * bits)
    lps = np.rint(scale * np.log2(ps)).astype(np.int64).tolist()
    # The wheel: cells i and i + 5040 share every valuation capped at
    # 2^4, 3^2, 5 and 7, so those powers are sieved on the first 5040 cells
    # only and that head is copied across the window by doubling.
    head = min(n, _WHEEL)
    tau = np.empty(n, dtype=np.uint64)
    logs = np.empty(n, dtype=np.uint8)
    tau[:head] = 1
    logs[:head] = 0

    def guard(cells: np.ndarray, factor: int, where: np.ndarray | bool = True) -> None:
        """Raise unless every cell under `where` times factor stays <= _TAU_MAX."""
        cap = _TAU_MAX // factor  # the plain max is cheap; the masked one decides
        if cells.max() > cap and cells.max(initial=0, where=where) > cap:
            raise OverflowError(
                f"tau_{k} exceeds the 64-bit sieve range on [{lo}, {hi}); "
                f"use tau_k_of for exact big-integer values"
            )

    def strike(p: int, lp: int, j: int, last: int, stop: int) -> None:
        """Sieve p^j .. p^last on the first `stop` cells."""
        q = p**j
        # no multiple of p^j in the cells means none of p^(j+1) either
        while j <= last and (s := -lo % q) < stop:
            cells = tau[s:stop:q]
            if j > 1:
                cells //= binom[j - 1]
            if guarded:
                guard(cells, binom[j])
            cells *= binom[j]
            logs[s:stop:q] += lp
            q, j = q * p, j + 1

    for p, lp in zip(ps[:4].tolist(), lps):  # the wheel primes lead ps
        if p in _WHEEL_POWERS:
            strike(p, lp, 1, _WHEEL_POWERS[p], head)
    done = head
    while done < n:
        step = min(done, n - done)
        for a in (tau, logs):
            a[done : done + step] = a[:step]
        done += step
    for p, lp in zip(ps.tolist(), lps):
        strike(p, lp, _WHEEL_POWERS.get(p, 0) + 1, 63, n)
    big = np.empty(n, dtype=bool)
    drop = (scale / 4 + 1 / 8) * log2(hi)
    a = lo
    while a < hi:
        b = min(hi, a + a // 8 + 1)
        t = round(scale * (log2(a) + log2(b - 1)) / 2 - drop)
        # t <= 0 leaves no cell below it; a negative scalar cannot meet uint8
        np.less(logs[a - lo : b - lo], max(t, 0), out=big[a - lo : b - lo])
        a = b
    if guarded:
        guard(tau, k, big)
    # 1 + (k - 1) [P > 1] <= 16 fits the uint8 cell; one plain multiply
    factor = big.view(np.uint8)
    factor *= k - 1
    factor += 1
    tau *= factor
    return TauSegment(k=k, lo=lo, hi=hi, values=tau)


def tau_k_segments(
    k: int, lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[TauSegment]:
    """Stream tau_k over [lo, hi) in ascending windows of segment_size <= 2^22;
    the arguments are checked at the call, each window is sieved as it is read."""
    _check_range(k, lo, hi)
    _check_window(segment_size)
    ps = primes_upto(isqrt(hi - 1))
    return (
        tau_k_segment(k, s_lo, min(s_lo + segment_size, hi), _primes=ps)
        for s_lo in range(lo, hi, segment_size)
    )


def euler_phi(n: int) -> int:
    """Euler's totient."""
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def moebius(n: int) -> int:
    """Moebius mu: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    fac = factorize(n)
    for _, e in fac.factors:
        if e > 1:
            return 0
    return -1 if len(fac.factors) % 2 else 1


def dirichlet_convolve(f: Callable[[int], int], g: Callable[[int], int], n: int):
    """(f * g)(n) = sum over n = a*b of f(a) g(b); exact when f, g are exact."""
    total = 0
    for a in divisors(n):
        total += f(a) * g(n // a)
    return total


def phi_star(q: int) -> int:
    """Number of primitive characters mod q, via phi_star = mu * phi."""
    return dirichlet_convolve(moebius, euler_phi, q)
