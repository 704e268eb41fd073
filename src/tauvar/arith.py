"""Exact multiplicative-function arithmetic.

Provides:
- integer factorization (trial division, 64-bit inputs), divisors, units mod d
- the k-fold divisor function tau_k, pointwise and as a segmented sieve
- Euler phi, Moebius mu, and phi_star (the count of primitive characters)
- generic Dirichlet convolution over the divisors of n

tau_k(n) is the number of ordered k-tuples with product n.  On prime powers
tau_k(p^j) = C(k+j-1, k-1), and tau_k is multiplicative, so every pointwise
value is a product of binomials over the prime factorization.  The segmented
sieve computes the same values in bulk, in two passes over two cells per n.
The uint16 pass walks the whole window with one strided step per prime
power p^j: each hit takes a rounded, scaled log2 p off the low byte, whose
sum tells whether n keeps one prime factor above sqrt(hi) that no step
reaches, and a prime above the wheel that divides n once adds 1 to the high
byte.  The uint64 pass then works on blocks of the output that fit the L2
cache: it trades the cell's factor tau_k(p^(j-1)) for tau_k(p^j), an exact
division and multiplication, for p^j from 2^5, 3^3, 5^2 and 7^2 on and from
p^2 on for the other primes, and multiplies each cell by k^(high byte),
read from a 16-entry table.  The powers 2^4, 3^2, 5 and 7 repeat with
period 5040, so the first 5040 cells read their factors and log units from
a table of the 60 rows of valuations capped there, and are copied across
the window by doubling; primes with no multiple in the window are skipped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
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


def _wheel_rows() -> Tuple[np.ndarray, np.ndarray]:
    """The 60 rows (v2, v3, v5, v7) of valuations capped at 2^4, 3^2, 5 and
    7, in mixed-radix order, and the row of each residue mod 5040 over two
    turns, so that any 5040 consecutive residues are one slice."""
    rows = np.array(list(product(*(range(e + 1) for e in _WHEEL_POWERS.values()))))
    r = np.arange(_WHEEL)
    row_of = np.zeros(_WHEEL, dtype=np.int64)
    for p, e in _WHEEL_POWERS.items():
        row_of = row_of * (e + 1) + sum(r % p**j == 0 for j in range(1, e + 1))
    return rows, np.tile(row_of, 2).astype(np.uint8)


_WHEEL_ROWS, _WHEEL_ROW_OF = _wheel_rows()

# The sieve's cache budget, one core's L2, and the cells per block of its
# uint64 pass, 2^18 of 8 bytes.
_L2 = 1 << 21
_BLOCK = _L2 // 8

# Cells per step of the sieve's last multiply: its two 8-byte temporaries
# take an eighth of the budget.
_CHUNK = _BLOCK // 16


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod p^e with p strictly increasing."""

    n: int
    factors: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TauSegment:
    """tau_k(n) for n in [lo, hi), exact unsigned 64-bit values."""

    k: int
    lo: int
    hi: int
    values: np.ndarray  # uint64, length hi - lo


# what every integer argument must be: a Python or numpy integer, never a float
_INTEGERS = (int, np.integer)


def _check_k(k: int) -> int:
    """The rule for k, which it returns as a Python int: numpy's power would
    round a numpy integer k's floats differently from the equal int's."""
    if not isinstance(k, _INTEGERS) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > MAX_K:
        raise ValueError(f"k = {k} exceeds the supported bound {MAX_K}")
    return int(k)


def factorize(n: int) -> Factorization:
    """Canonical factorization of n, 1 <= n <= 2^63 - 1.

    factorize(1) has an empty factor list.  Trial division by 2, 3 and the
    6m+-1 wheel; adequate for the moduli and bounds this package targets,
    not for cryptographic-size inputs.
    """
    if not isinstance(n, _INTEGERS):
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


def _check_modulus(d: int) -> None:
    """The one modulus rule of units, character groups, variance points and a_k(d)."""
    if not isinstance(d, _INTEGERS) or d < 1:
        raise ValueError(f"modulus must be >= 1 and an integer, got {d!r}")


def units(d: int) -> np.ndarray:
    """Sorted unit residues mod d (for d = 1 this is [0], the class of every n)."""
    _check_modulus(d)
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
    if not (isinstance(lo, _INTEGERS) and isinstance(hi, _INTEGERS) and 1 <= lo < hi):
        raise ValueError(f"need 1 <= lo < hi, both integers, got [{lo}, {hi})")
    if hi - 1 > MAX_N:
        raise ValueError(f"hi = {hi} exceeds the supported bound 2^63 - 1")


def _check_window(segment_size: int) -> None:
    """The one rule for a sieve window: an integer 1..DEFAULT_SEGMENT_SIZE entries."""
    if not (isinstance(segment_size, _INTEGERS) and 1 <= segment_size <= DEFAULT_SEGMENT_SIZE):
        raise ValueError(
            f"segment_size must be positive and <= {DEFAULT_SEGMENT_SIZE}, an integer, "
            f"got {segment_size}"
        )


def tau_k_segment(k: int, lo: int, hi: int, *, _primes: np.ndarray | None = None) -> TauSegment:
    """Sieve tau_k(n) for all n in [lo, hi), at most DEFAULT_SEGMENT_SIZE entries.

    One sieve in two passes over two cells per n.  The uint16 pass walks
    the whole window, one strided step per prime power p^j: every hit takes
    a rounded, scaled log2 p off the cell's low byte, whose sum tells
    whether n keeps one prime factor > sqrt(hi), worth k; a hit on a prime
    p > 7 adds 256 and one on p^2 takes it back, so the high byte counts the
    primes above the wheel that divide n once.  The uint64 pass then fills
    the output in place, in blocks of 2^18 cells that fit the L2 cache:
    each block takes in its phase of the 5040-cell head, whose factors for
    2^4, 3^2, 5 and 7 come from a table, strikes 2^5, 3^3, 5^2 and 7^2 on,
    and p^2 on for the other primes, trading the cell's factor
    tau_k(p^(j-1)) = C(k+j-2, k-1) for tau_k(p^j) = C(k+j-1, k-1) by an
    exact division and multiplication, and multiplies each cell by
    k^(high byte) from a 16-entry table.  A window wider than a block
    strikes the squares of the primes from 67 on once instead: it finds
    their few hits and multiplies each hit cell by its tau_k(p^e).  Only
    primes with a multiple in the window are walked.  The products are
    exact, so their order changes no value, and the result is independent
    of how a larger range is cut into segments.  Windows whose values could
    reach 2^62 check the cells before each multiply and raise OverflowError
    rather than return a wrapped value.  The cap on the width is fixed;
    tau_k_segments() streams wider ranges.
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
    plist, lps = ps.tolist(), np.rint(scale * np.log2(ps)).astype(np.int64).tolist()
    # The slices [a, b) of the window that share a threshold: cells
    # starts[j] .. starts[j + 1] - 1 compare with ts[j].
    starts, ts = [], []
    drop = (scale / 4 + 1 / 8) * log2(hi)
    a = lo
    while a < hi:
        b = min(hi, a + a // 8 + 1)
        starts.append(a - lo)
        # t <= 0 leaves no cell below it
        ts.append(max(round(scale * (log2(a) + log2(b - 1)) / 2 - drop), 0))
        a = b
    starts.append(n)
    # The uint16 cell of n ends at 256 (count + 1) + t - 1 - c, count the
    # number of primes above the wheel that divide n exactly once: it
    # starts at 255 + t, each hit on p^j takes r(p) off it, and a hit on
    # p > 7 adds 256, taken back by a hit on p^2.  As 0 <= t, c <= 240, its
    # high byte ends at count + [c < t], the exponent of k in tau_k(n)
    # still to come.  The additions wrap mod 2^16 on the way, but the end
    # value is the same in any order.  The count is at most 13, as
    # 11 * 13 * ... * 59 < 2^63 < 11 * 13 * ... * 61, so k^(count + 1) is
    # read from a 16-entry table; 16^15 = 2^60 fits.
    # The wheel: cells i and i + 5040 share every valuation capped at
    # 2^4, 3^2, 5 and 7, so the first 5040 cells, the head, take those
    # powers' factors and log units from a table of the 60 rows of such
    # valuations, for the wheel primes that are sieved.  The head is copied
    # across the uint16 cells, and taken at its phase into every block of
    # the uint64 ones.
    lw = dict(zip(plist[:4], lps))  # the wheel primes lead ps
    rows = _WHEEL_ROWS * [p in lw for p in _WHEEL_POWERS]
    wheel_tau = np.array(binom[:5], dtype=np.uint64)[rows].prod(axis=1)
    wheel_log = rows @ [lw.get(p, 0) for p in _WHEEL_POWERS]
    head = min(n, _WHEEL)
    cells = np.empty(n, dtype=np.uint16)
    cells[:head] = (-wheel_log).astype(np.uint16)[_WHEEL_ROW_OF[lo % _WHEEL :][:head]]
    tau = np.empty(n, dtype=np.uint64)

    def guard(vals: np.ndarray, factor: int | np.ndarray) -> None:
        """Raise unless every cell times its factor stays <= _TAU_MAX."""
        if (vals > _TAU_MAX // factor).any():
            raise OverflowError(
                f"tau_{k} exceeds the 64-bit sieve range on [{lo}, {hi}); "
                f"use tau_k_of for exact big-integer values"
            )

    def spread(a: np.ndarray, done: int) -> None:
        """Copy the first `done` cells of a across all of it by doubling."""
        while done < a.size:
            step = min(done, a.size - done)
            a[done : done + step] = a[:step]
            done += step

    # The uint16 pass, over the whole window: every log hit and count change.
    spread(cells, head)
    for j, t in enumerate(ts):
        cells[starts[j] : starts[j + 1]] += 255 + t
    # The uint64 pass strikes 2^5, 3^3, 5^2 and 7^2 on, and p^2 on for the
    # other primes, whose cells hold no factor for p, its k waiting for the
    # multiply by k^(high byte).  A window of one block strikes every prime
    # so.  In a wider one, the squares of the primes from 67 on hit each
    # block too rarely for a strided step per block: their hits are found
    # once instead.
    dense = len(plist) if n <= _BLOCK else bisect_right(plist, isqrt(_BLOCK // 64))
    # (first cell, p^j, the factor for p its cells hold, j) of each power
    strikes = []
    for p, lp in zip(plist[:dense], lps):
        if p in _WHEEL_POWERS:
            j = _WHEEL_POWERS[p] + 1
        else:
            # p once: count it; p^2: uncount it
            cells[-lo % p :: p] += 256 - lp
            if (s := -lo % (p * p)) >= n:
                continue
            cells[s :: p * p] -= 256 + lp
            strikes.append((s, p * p, 1, 2))
            j = 3
        q = p**j
        while (s := -lo % q) < n:
            cells[s::q] -= lp
            strikes.append((s, q, binom[j - 1], j))
            q, j = q * p, j + 1
    for p, lp in zip(plist[dense:], lps[dense:]):
        cells[-lo % p :: p] += 256 - lp
    # The squares of the primes p >= 67: every hit, with its exponent e read
    # off n.  The cells lose e - 1 more log units and the count; each hit
    # cell gets the product of its tau_k(p^e), that of several primes on
    # one cell merged.  Their exponents sum to at most 10, as 67^11 >
    # 2^63, so the product stays <= 16^10.
    hits = ()
    if dense < ps.size:
        big, lbig = ps[dense:], np.array(lps[dense:])
        first = (-lo) % big**2
        # (n - 1 - first) // p^2 is -1 for a square with no multiple
        count = (n - 1 - first) // big**2 + 1
        big, lbig, first = (np.repeat(v, count) for v in (big, lbig, first))
        ith = np.arange(big.size) - np.repeat(np.cumsum(count) - count, count)
        hits = first + big**2 * ith
        e = np.full(hits.size, 2)
        m = (hits + lo) // big**2
        while (deeper := m % big == 0).any():
            e += deeper
            m //= np.where(deeper, big, 1)
        np.add.at(cells, hits, (-256 - (e - 1) * lbig).astype(np.uint16))
        hits, merge = np.unique(hits, return_inverse=True)
        hit_factor = np.ones(hits.size, dtype=np.uint64)
        table = np.array(binom[: e.max(initial=2) + 1], dtype=np.uint64)
        np.multiply.at(hit_factor, merge, table[e])

    powers = np.array([k**e for e in range(16)], dtype=np.uint64)
    factor = np.empty(min(n, _CHUNK), dtype=np.uint64)
    # The uint64 pass, block by block: the head, the strikes, the hits of
    # the squares, and k^(high byte) in steps of _CHUNK cells.
    for a in range(0, n, _BLOCK):
        b = min(n, a + _BLOCK)
        block = tau[a:b]
        h = min(head, b - a)
        wheel_tau.take(_WHEEL_ROW_OF[(lo + a) % _WHEEL :][:h], out=block[:h])
        spread(block, h)
        for s, q, held, j in strikes:
            if (s := (s - a) % q) < b - a:
                vals = block[s::q]
                if held > 1:
                    vals //= held
                if guarded:
                    guard(vals, binom[j])
                vals *= binom[j]
        if len(hits):
            i, i_end = np.searchsorted(hits, (a, b))
            at, f = hits[i:i_end], hit_factor[i:i_end]
            vals = tau[at]
            if guarded:
                guard(vals, f)
            tau[at] = vals * f
        for i in range(a, b, _CHUNK):
            c = cells[i : min(b, i + _CHUNK)]
            c >>= 8
            # c <= 14, so "clip" never clips; it spares take() a buffered copy
            f = powers.take(c, out=factor[: c.size], mode="clip")
            vals = tau[i : i + c.size]
            if guarded:
                guard(vals, f)
            vals *= f
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
