"""Dirichlet character groups via generator exponents and discrete logs.

A character mod d is an exponent vector against a fixed generator basis of
(Z/d)*: one generator per odd prime power (the smallest primitive root),
the residue 3 for modulus 4, and the pair (-1, 5) for 2^e with e >= 3.
`CharacterGroup` works on the grid of every exponent vector, of shape
`orders`:

- `values` gives chi(a) for every chi, read from one table of roots of
  unity, so repeated-angle arithmetic never drifts;
- `transform` gives sum_a conj(chi(a)) v_a for every chi by one FFT, and
  `gauss_sums` every tau(chi) by one transform;
- `parity`, `conductors` and `primitive` are grids of invariants;
- `primitive_powers` serves every q | d from the one group mod d.

Discrete-log tables are built per prime-power factor at construction time,
which bounds usable moduli (10^7 by default).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd, lcm, prod
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .arith import Factorization, _check_modulus, divisors, euler_phi, factorize, moebius, phi_star, units

__all__ = [
    "CharacterGroup",
    "DirichletCharacter",
    "enumerate_characters",
    "enumerate_primitive",
    "primitive_orthogonality_sum",
]

MAX_MODULUS = 10**7

# Baby steps per block of a discrete-log table's power table.
_BABY = 1 << 16


@dataclass(frozen=True)
class _Component:
    """One cyclic factor of (Z/d)*: <generator> of the given order mod p^e."""

    p: int
    e: int
    modulus: int  # p^e
    generator: int  # residue mod p^e
    order: int
    dlog: np.ndarray  # int64, length p^e; exponent of generator, -1 off units


def _smallest_primitive_root(p: int, e: int) -> int:
    """Least primitive root modulo the odd prime power p^e."""
    pe = p**e
    phi = pe // p * (p - 1)
    test_exps = [phi // q for (q, _) in factorize(phi).factors]
    g = 2
    while True:
        if gcd(g, p) == 1 and all(pow(g, t, pe) != 1 for t in test_exps):
            return g
        g += 1


def _power_blocks(g: int, order: int, modulus: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(g^i mod modulus, i) for i in range(order), in blocks of at most 2^16
    entries: a baby table of g^j, filled by doubling, times each giant step
    g^i.  Cells stay below modulus <= 2^24, so every product fits in int64,
    and the blocks bound the scratch memory whatever the order."""
    baby = np.ones(min(order, _BABY), dtype=np.int64)
    size = 1
    while size < baby.size:
        step = min(size, baby.size - size)
        baby[size : size + step] = baby[:step] * pow(g, size, modulus) % modulus
        size += step
    for i in range(0, order, baby.size):
        n = min(baby.size, order - i)
        yield baby[:n] * pow(g, i, modulus) % modulus, np.arange(i, i + n)


def _cyclic_component(p: int, e: int, generator: int, order: int) -> _Component:
    pe = p**e
    dlog = np.full(pe, -1, dtype=np.int64)
    for r, i in _power_blocks(generator, order, pe):
        dlog[r] = i
    return _Component(p=p, e=e, modulus=pe, generator=generator, order=order, dlog=dlog)


def _two_power_components(e: int) -> List[_Component]:
    """(Z/2^e)* for e >= 3 as <-1> x <5>, with a joint log table."""
    pe = 1 << e
    order5 = 1 << (e - 2)
    dlog_m1 = np.full(pe, -1, dtype=np.int64)
    dlog_5 = np.full(pe, -1, dtype=np.int64)
    for fives, t in _power_blocks(5, order5, pe):
        for s, r in ((0, fives), (1, pe - fives)):
            dlog_m1[r] = s
            dlog_5[r] = t
    return [
        _Component(p=2, e=e, modulus=pe, generator=pe - 1, order=2, dlog=dlog_m1),
        _Component(p=2, e=e, modulus=pe, generator=5 % pe, order=order5, dlog=dlog_5),
    ]


def _prime_power_components(p: int, e: int) -> List[_Component]:
    """The cyclic factors of (Z/p^e)*, e >= 0: none for 1 and 2, <3> mod 4,
    <-1> x <5> mod 2^e for e >= 3, else <g> with g the least primitive root."""
    if e == 0 or p**e == 2:
        return []
    if p == 2:
        return [_cyclic_component(2, 2, 3, 2)] if e == 2 else _two_power_components(e)
    return [_cyclic_component(p, e, _smallest_primitive_root(p, e), p ** (e - 1) * (p - 1))]


def _conductor_grid(comps: Sequence[_Component]) -> np.ndarray:
    """Conductor of every character on the exponent grid of the given factors.

    A character of order o > 1 on the factor mod p^e needs p * gcd(o, p^e),
    twice that on the <5> factor of (Z/2^e)*, and the conductor is the lcm
    over the factors; the tests check it against the minimal-f definition.
    """
    needs = []
    for c in comps:
        o = c.order // np.gcd(c.order, np.arange(c.order))
        twice = 2 if c.p == 2 and c.generator == 5 else 1
        needs.append(np.where(o > 1, twice * c.p * np.gcd(o, c.modulus), 1))
    return reduce(np.lcm.outer, needs, np.ones((), dtype=np.int64))


def _outer_and(masks) -> np.ndarray:
    """The outer AND of per-prime masks: true where every factor's entry is."""
    return reduce(np.logical_and.outer, masks, np.ones((), dtype=bool))


def _logs(comps: Sequence[_Component], residues: np.ndarray) -> List[np.ndarray]:
    """Per-factor discrete logs of the residues: -1 off the units of p^f."""
    return [c.dlog[residues % c.modulus] for c in comps]


def _fourier(orders: Tuple[int, ...], logs: Sequence[np.ndarray], n: int, values) -> np.ndarray:
    """sum_a conj(chi(a)) v_a on the exponent grid of shape `orders`, from the
    per-factor logs of the n residues: one bincount (two for complex
    values), one FFT."""
    flat = np.zeros(n, dtype=np.int64)
    for o, lv in zip(orders, logs):
        flat = flat * o + lv
    scatter = lambda w: np.bincount(flat, weights=w, minlength=prod(orders))
    grid = scatter(values.real) + 1j * scatter(values.imag) if np.iscomplexobj(values) else scatter(values)
    return np.fft.fftn(grid.reshape(orders))


class CharacterGroup:
    """The character group mod d with fixed, reproducible generator choices."""

    def __init__(self, d: int):
        _check_modulus(d)
        if d > MAX_MODULUS:
            raise ValueError(
                f"modulus {d} exceeds the discrete-log table bound {MAX_MODULUS}; "
                f"split the work or raise characters.MAX_MODULUS explicitly"
            )
        self.d = d
        self.factorization: Factorization = factorize(d)
        # the factors of (Z/d)* grouped by prime power p^e || d
        self._parts = tuple(
            (p, e, _prime_power_components(p, e)) for p, e in self.factorization.factors
        )
        self.components: Tuple[_Component, ...] = tuple(c for _, _, cs in self._parts for c in cs)
        self.orders: Tuple[int, ...] = tuple(c.order for c in self.components)
        self.phi = prod(self.orders)
        self.exponent = lcm(*self.orders) if self.orders else 1

    @cached_property
    def roots(self) -> np.ndarray:
        """The exponent-th roots of unity, exact at the quarter turns; only
        character values read them, so the transforms never build them."""
        n = self.exponent
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        roots[0] = 1.0
        if n % 2 == 0:
            roots[n // 2] = -1.0
        if n % 4 == 0:
            roots[n // 4] = 1j
            roots[3 * n // 4] = -1j
        return roots

    def _check_units(self, residues: np.ndarray, logs: Sequence[np.ndarray]) -> None:
        """Raise unless every residue is a unit mod d, from its logs: a table
        gives -1 off the units of its p^f, and 2 || d has no table, so there
        an even residue is caught by its parity."""
        if any(np.any(lv < 0) for lv in logs) or (self.d % 4 == 2 and np.any(residues % 2 == 0)):
            raise ValueError(f"characters need unit residues mod {self.d}")

    def _evaluate(self, exponents: Sequence, residues: np.ndarray) -> np.ndarray:
        """chi(a) from the root table at index sum_i m_i (exponent / o_i) log_i(a),
        each exponent m_i broadcast against the logs of the unit residues."""
        residues = np.asarray(residues, dtype=np.int64)
        logs = _logs(self.components, residues)
        self._check_units(residues, logs)
        lam = self.exponent
        idx = np.zeros(residues.shape, dtype=np.int64)
        for m, c, lv in zip(exponents, self.components, logs):
            idx = idx + m * (lam // c.order) * lv
        return self.roots[idx % lam]

    def values(self, residues: np.ndarray) -> np.ndarray:
        """chi(a) for every chi on the exponent grid and every unit residue a,
        of shape orders + (n,); residues >= d are reduced."""
        ndim = len(self.orders)
        grid = [np.arange(o).reshape((-1,) + (1,) * (ndim - i)) for i, o in enumerate(self.orders)]
        return self._evaluate(grid, residues)

    @cached_property
    def parity(self) -> np.ndarray:
        """1 where chi(-1) = -1, else 0, on the exponent grid.  -1 has log 0
        or o/2 on each factor of order o, so chi(-1) = (-1)^(sum of m over
        the factors where it is o/2)."""
        flips = [np.arange(c.order) * (2 * c.dlog[c.modulus - 1] // c.order) for c in self.components]
        return reduce(np.add.outer, flips, np.zeros((), dtype=np.int64)) % 2

    def gauss_sums(self) -> np.ndarray:
        """tau(chi) = sum_b chi(b) e(b/d) for every chi, on the exponent grid:
        the conjugate of one transform of e(-b/d)."""
        us = units(self.d)
        return np.conj(self.transform(us, np.exp(-2j * np.pi * us / self.d)))

    def transform(self, residues: np.ndarray, values: np.ndarray) -> np.ndarray:
        """sum_a conj(chi(a)) v_a for every chi, on the exponent grid of shape `orders`.

        Values may be real or complex.  Repeated residues add up, so values
        on units mod a multiple of d may be passed reduced mod d.  The entry
        at index m is the one for exponent vector m, as in `values`.
        """
        residues = np.asarray(residues, dtype=np.int64)
        logs = _logs(self.components, residues)
        self._check_units(residues, logs)
        return _fourier(self.orders, logs, residues.size, values)

    def primitive_powers(self, residues: np.ndarray, values: np.ndarray) -> Dict[int, np.ndarray]:
        """|sum_a conj(chi(a)) v_a|^2 for the primitive chi mod each q | d, q > 1.

        Maps q, ascending, to the squares of CharacterGroup(q).transform at
        its entries of conductor q, in grid order, bit for bit: the factors
        mod every p^f | d, with the generators CharacterGroup(p^f) uses, take
        the logs of the residues once, and each q takes one FFT over its own.
        q = 2 (mod 4) has no primitive character and is left out.
        """
        residues = np.asarray(residues, dtype=np.int64)
        # per p^e || d, one level per f = 0..e: (p^f, orders, logs, primitive mask)
        levels = []
        for p, e, comps in self._parts:
            level = []
            for f in (0, *range(2 if p == 2 else 1, e + 1)):  # no primitive character mod 2
                cs = comps if f == e else _prime_power_components(p, f)
                primitive = _conductor_grid(cs) == p**f
                level.append((p**f, tuple(c.order for c in cs), _logs(cs, residues), primitive))
            levels.append(level)
        self._check_units(residues, [lv for level in levels for part in level for lv in part[2]])
        out = {}
        for choice in itertools.product(*levels):
            q = prod(part[0] for part in choice)
            if q == 1:
                continue
            _, orders, logs, masks = zip(*choice)
            flat_logs = [lv for part in logs for lv in part]
            power = np.abs(_fourier(sum(orders, ()), flat_logs, residues.size, values)) ** 2
            out[q] = power[_outer_and(masks)]
        return dict(sorted(out.items()))

    @cached_property
    def conductors(self) -> np.ndarray:
        """Conductor of every character, on the exponent grid of shape `orders`."""
        return _conductor_grid(self.components)

    @cached_property
    def primitive(self) -> np.ndarray:
        """Whether each character is primitive (conductor d), on the exponent grid."""
        return self.conductors == self.d

    def __repr__(self) -> str:  # pragma: no cover
        return f"CharacterGroup(d={self.d}, orders={self.orders})"


@dataclass(frozen=True)
class DirichletCharacter:
    """Character determined by chi(g_i) = zeta^(exponents[i] / order_i).

    This class and the two enumerators below are kept only because the
    benchmark traces them; library code works on `CharacterGroup`'s grids.
    """

    group: CharacterGroup
    exponents: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) != len(self.group.orders):
            raise ValueError("exponent vector does not match the group basis")
        for m, n in zip(self.exponents, self.group.orders):
            if not (0 <= m < n):
                raise ValueError(f"exponent {m} outside range of order {n}")

    def values_on(self, residues: np.ndarray) -> np.ndarray:
        """Values on an array of unit residues mod d; raises off the units."""
        return self.group._evaluate(self.exponents, residues)


def enumerate_characters(d: int | CharacterGroup) -> Iterator[DirichletCharacter]:
    """All phi(d) characters mod d, principal first, in a stable order."""
    group = d if isinstance(d, CharacterGroup) else CharacterGroup(d)
    for exps in itertools.product(*(range(n) for n in group.orders)):
        yield DirichletCharacter(group, exps)


def enumerate_primitive(q: int | CharacterGroup) -> Iterator[DirichletCharacter]:
    """The phi_star(q) primitive characters mod q, in enumeration order."""
    for chi in enumerate_characters(q):
        if chi.group.primitive[chi.exponents]:
            yield chi


def primitive_orthogonality_sum(q: int, m: int, n: int) -> int:
    """sum over primitive chi mod q of chi(m) conj(chi(n)), via the divisor formula.

    Requires gcd(mn, q) = 1.  Equals sum over q = q2 r2 with r2 | m - n of
    mu(q2) phi(r2); the m = n diagonal gives phi_star(q).  The tests verify
    agreement with brute-force summation over the primitive rows of `values`.
    """
    if gcd(m * n, q) != 1:
        raise ValueError(f"gcd(mn, q) must be 1, got m={m}, n={n}, q={q}")
    diff = m - n
    total = 0
    for r2 in divisors(q):
        if diff % r2 == 0:
            total += moebius(q // r2) * euler_phi(r2)
    assert m != n or total == phi_star(q)
    return total
