"""Character groups: construction, evaluation, conductor, induction, Gauss sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauvar.arith import divisors, euler_phi, factorize, phi_star, units
from tauvar.characters import (
    CharacterGroup,
    DirichletCharacter,
    enumerate_characters,
    enumerate_primitive,
    primitive_orthogonality_sum,
)


def brute_conductors(group):
    """Oracle: for every chi, the least f | d with chi trivial on every unit
    u = 1 (mod f)."""
    us = units(group.d)
    vals = group.values(us)
    out = np.full(group.orders, group.d)
    for f in reversed(divisors(group.d)):  # the least f is written last
        trivial = np.all(np.abs(vals[..., us % f == 1 % f] - 1.0) < 1e-12, axis=-1)
        out[trivial] = f
    return out


def test_group_structure_examples():
    assert CharacterGroup(1).phi == 1
    assert CharacterGroup(8).orders == (2, 2)
    assert CharacterGroup(45).orders == (6, 4)  # phi(9), phi(5)
    for d in (1, 2, 7, 8, 16, 45, 120):
        g = CharacterGroup(d)
        prod = 1
        for o in g.orders:
            prod *= o
        assert prod == euler_phi(d)


def test_group_bounds():
    with pytest.raises(ValueError):
        CharacterGroup(0)
    with pytest.raises(ValueError, match="table bound"):
        CharacterGroup(10**7 + 1)


def test_dlog_round_trip():
    for d in (9, 16, 24, 45, 56):
        g = CharacterGroup(d)
        two_power = [c for c in g.components if c.p == 2 and c.e >= 3]
        for c in g.components:
            if c in two_power:
                continue
            units = [a for a in range(c.modulus) if math.gcd(a, c.modulus) == 1]
            for a in units:
                assert pow(c.generator, int(c.dlog[a]), c.modulus) == a
        if two_power:
            # joint table: a = (-1)^s * 5^t must reproduce every odd residue
            minus, five = two_power
            pe = minus.modulus
            for a in range(1, pe, 2):
                s, t = int(minus.dlog[a]), int(five.dlog[a])
                assert (pow(pe - 1, s, pe) * pow(5, t, pe)) % pe == a


def loop_dlog(generator, order, modulus):
    """Reference: the table filled one power at a time."""
    dlog = np.full(modulus, -1, dtype=np.int64)
    a = 1
    for i in range(order):
        dlog[a] = i
        a = a * generator % modulus
    return dlog


@pytest.mark.parametrize("modulus", [4, 8, 49, 2**19, 3**11, 65537])
def test_dlog_tables_equal_the_power_loop(modulus):
    # moduli whose orders span one block or more of the baby-step table
    comps = CharacterGroup(modulus).components
    if modulus % 2 or modulus == 4:
        (c,) = comps
        assert np.array_equal(c.dlog, loop_dlog(c.generator, c.order, modulus))
    else:
        minus, five = comps
        t = loop_dlog(5, five.order, modulus)
        t[modulus - np.flatnonzero(t >= 0)] = t[t >= 0]
        assert np.array_equal(five.dlog, t)
        assert np.array_equal(minus.dlog, np.where(t >= 0, np.arange(modulus) % 4 // 2, -1))


@pytest.mark.parametrize("modulus", [2**20, 3**13, 10007, 9999991])
def test_dlog_tables_at_large_moduli(modulus):
    # The tables come from blocks of a power table; beyond one block they
    # must still be exact: a permutation of range(order) on the units, -1 off
    # them, and each log raising the generator back to its residue.
    (p, e), = factorize(modulus).factors
    comps = CharacterGroup(modulus).components
    off_units = np.arange(0, modulus, p)
    for c in comps:
        assert np.all(c.dlog[off_units] == -1)
        assert np.count_nonzero(c.dlog < 0) == off_units.size
    sample = np.random.default_rng(29).integers(1, modulus, size=400)
    sample = sample[sample % p != 0]
    if p == 2:
        # (-1, 5) jointly: a = (-1)^s 5^t, each (s, t) taken by one odd a
        minus, five = comps
        joint = minus.dlog * five.order + five.dlog
        counts = np.bincount(joint[1::2], minlength=2 * five.order)
        assert counts.size == 2 * five.order and np.all(counts == 1)
        for a in sample.tolist():
            s, t = int(minus.dlog[a]), int(five.dlog[a])
            assert pow(modulus - 1, s, modulus) * pow(5, t, modulus) % modulus == a
    else:
        (c,) = comps
        counts = np.bincount(c.dlog[c.dlog >= 0], minlength=c.order)
        assert counts.size == c.order and np.all(counts == 1)
        for a in sample.tolist():
            assert pow(c.generator, int(c.dlog[a]), modulus) == a


def test_enumeration_counts():
    chis = list(enumerate_characters(5))
    assert len(chis) == 4
    assert sum(1 for c in chis if any(c.exponents)) == 3
    assert len(list(enumerate_primitive(4))) == 1
    assert len(list(enumerate_primitive(2))) == 0
    for q in range(1, 61):
        assert len(list(enumerate_primitive(q))) == phi_star(q)
        assert len(list(enumerate_characters(q))) == euler_phi(q)


def test_char_eval_examples():
    for d in (1, 4, 9, 12):
        assert np.all(CharacterGroup(d).values(np.array([1])) == 1)
    # the nonprincipal character mod 4 is exponent 1 on <3>
    assert CharacterGroup(4).values(np.array([3]))[1, 0] == -1
    # the characters of order 4 mod 5, exponents 1 and 3 on <2>, send the
    # generator 2 to a primitive 4th root
    quartics = CharacterGroup(5).values(np.array([2]))[[1, 3], 0]
    assert sorted(quartics.tolist(), key=lambda z: z.imag) == [-1j, 1j]
    # values_on reads the same evaluator: each row of values, bit for bit
    for d in (1, 8, 45, 60):
        g = CharacterGroup(d)
        us = units(d)
        for chi in enumerate_characters(g):
            assert np.array_equal(chi.values_on(us + d), g.values(us)[chi.exponents])


def test_values_raise_off_units():
    # no character has a value off the units: values and values_on raise,
    # as transform does, rather than read a -1 log into the root table
    for d in (4, 10, 12, 45, 2018):
        g = CharacterGroup(d)
        chi = DirichletCharacter(g, tuple(o - 1 for o in g.orders))
        n = np.arange(2 * d)
        on_units = np.gcd(n, d) == 1
        assert np.all(np.abs(np.abs(g.values(n[on_units])) - 1.0) < 1e-14)
        for b in n[~on_units].tolist():
            with pytest.raises(ValueError, match="unit residues"):
                g.values(np.array([1, b]))
            with pytest.raises(ValueError, match="unit residues"):
                chi.values_on(np.array([1, b]))


def test_complete_multiplicativity():
    rng = np.random.default_rng(17)
    for d in (5, 8, 12, 45):
        g = CharacterGroup(d)
        us = units(d)
        for _ in range(10):
            m, n = rng.choice(us, size=2)
            vals = g.values(np.array([m, n, m * n]))
            assert np.max(np.abs(vals[..., 2] - vals[..., 0] * vals[..., 1])) < 1e-13


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 2000), i=st.integers(0, 10**6), j=st.integers(0, 10**6))
def test_values_are_multiplicative(d, i, j):
    us = units(d)
    m, n = int(us[i % us.size]), int(us[j % us.size])
    vals = CharacterGroup(d).values(np.array([m, n, m * n]))
    assert np.max(np.abs(vals[..., 2] - vals[..., 0] * vals[..., 1])) < 1e-12


def test_parity():
    for d in range(1, 80):
        g = CharacterGroup(d)
        at_minus_1 = g.values(np.array([d - 1]))[..., 0]
        assert np.max(np.abs(at_minus_1 - (-1.0) ** g.parity)) < 1e-13


def test_conductor_examples():
    assert CharacterGroup(12).conductors[0, 0] == 1  # the principal character
    chi4 = CharacterGroup(4).values(units(8) % 4)[1]
    # chi4 induced to modulus 8: its values on the units mod 8 reduced mod 4
    g8 = CharacterGroup(8)
    (lifted,) = np.argwhere(np.all(g8.values(units(8)) == chi4, axis=-1))
    assert g8.conductors[tuple(lifted)] == 4 == brute_conductors(g8)[tuple(lifted)]
    assert np.all(CharacterGroup(5).conductors[1:] == 5)


def test_conductor_matches_brute_force():
    for d in list(range(1, 41)) + [48, 56, 63, 64, 80, 81, 125]:
        g = CharacterGroup(d)
        assert np.array_equal(g.conductors, brute_conductors(g)), d


def test_transform_matches_character_sums():
    # every coefficient on its own: a wrong discrete-log order or scatter
    # would keep the sum of |t|^2 but move or mix the entries
    rng = np.random.default_rng(23)

    def check(q, residues):
        g = CharacterGroup(q)
        v = rng.standard_normal(residues.size)
        w = v + 1j * rng.standard_normal(residues.size)
        want = np.sum(np.conj(g.values(residues)) * w, axis=-1)
        assert np.all(np.abs(g.transform(residues, w) - want) < 1e-12 * np.abs(w).sum()), q
        want = np.sum(np.conj(g.values(residues)) * v, axis=-1)
        assert np.all(np.abs(g.transform(residues, v) - want) < 1e-12 * np.abs(v).sum()), q
        # real input scatters as a complex one with zero imaginary part
        assert np.array_equal(g.transform(residues, v), g.transform(residues, v + 0j))

    for d in range(1, 61):
        check(d, units(d))
    for q in divisors(60):  # units mod 60 folded mod q: residues repeat
        check(q, units(60) % q)
    with pytest.raises(ValueError, match="unit residues"):
        CharacterGroup(12).transform(np.array([1, 4]), np.ones(2))
    # The unit check reads the log tables: an even residue has no table to
    # miss when 2 || d, and a multiple of an odd prime p | d misses p's.
    # Unit residues >= d are reduced, not rejected.
    for d in (2, 10, 2 * 1009, 12, 45, 2520):
        g = CharacterGroup(d)
        for b in [p for p, _ in factorize(d).factors] + [d, 3 * d]:
            with pytest.raises(ValueError, match="unit residues"):
                g.transform(np.array([1, b + d]), np.ones(2))
        us = units(d)
        v = rng.standard_normal(us.size)
        assert np.array_equal(g.transform(us + 7 * d, v), g.transform(us, v))


def test_primitive_mask_matches_conductors():
    # outer AND of one mask per prime power, against the lcm conductor grid
    for q in sorted(set(range(1, 501)) | set(divisors(27720))):
        g = CharacterGroup(q)
        assert np.array_equal(g.primitive, g.conductors == q), q
        assert np.count_nonzero(g.primitive) == phi_star(q)


def test_primitive_powers_match_per_q_groups():
    # One group mod d serves every q | d: the same squares, bit for bit, as
    # a fresh CharacterGroup(q) transform masked to conductor q.
    rng = np.random.default_rng(31)
    for d in (1, 2, 4, 12, 60, 2**10, 3**7, 27720):
        us = units(d)
        v = rng.standard_normal(us.size)
        got = CharacterGroup(d).primitive_powers(us, v)
        assert list(got) == [q for q in divisors(d)[1:] if q % 4 != 2]
        for q, power in got.items():
            g = CharacterGroup(q)
            want = np.abs(g.transform(us % q, v)) ** 2
            assert np.array_equal(power, want[g.conductors == q]), (d, q)
    for d, b in ((10, 4), (12, 9), (45, 10)):
        with pytest.raises(ValueError, match="unit residues"):
            CharacterGroup(d).primitive_powers(np.array([1, b]), np.ones(2))


def test_induction_bijection_small():
    for d in (12, 24, 40, 45):
        us = units(d)
        rows = np.round(CharacterGroup(d).values(us), 9).reshape(-1, us.size)
        direct = {tuple(row) for row in rows[1:]}  # all but the principal character
        induced = set()
        for q in divisors(d)[1:]:
            g = CharacterGroup(q)
            induced.update(tuple(row) for row in np.round(g.values(us % q)[g.primitive], 9))
        assert direct == induced
        assert len(induced) == euler_phi(d) - 1


def test_gauss_sum_examples():
    assert CharacterGroup(1).gauss_sums() == 1
    tau = CharacterGroup(5).gauss_sums()[2]  # the quadratic character mod 5
    assert abs(tau.imag) < 1e-12 and abs(tau.real - math.sqrt(5)) < 1e-12
    for q in range(3, 51):
        g = CharacterGroup(q)
        assert np.all(np.abs(np.abs(g.gauss_sums()[g.primitive]) ** 2 - q) < 1e-10), q


@pytest.mark.parametrize("qs", [range(1, 51), [1024, 2187, 1009]], ids=["q<=50", "large"])
def test_gauss_sums_match_direct_sums(qs):
    for q in qs:
        g = CharacterGroup(q)
        us = units(q)
        direct = np.sum(g.values(us) * np.exp(2j * np.pi * us / q), axis=-1)
        assert np.max(np.abs(g.gauss_sums() - direct)) < 1e-12 * us.size, q


def brute_primitive_sum(q, m, n):
    """sum over primitive chi mod q of chi(m) conj(chi(n)), one character at a time."""
    g = CharacterGroup(q)
    return complex(sum(a * np.conj(b) for a, b in g.values(np.array([m, n]))[g.primitive]))


def test_primitive_orthogonality_examples():
    assert primitive_orthogonality_sum(12, 5, 5) == phi_star(12) == 1
    assert primitive_orthogonality_sum(7, 1, 1) == 5
    assert abs(primitive_orthogonality_sum(5, 2, 3) - brute_primitive_sum(5, 2, 3)) < 1e-12
    with pytest.raises(ValueError, match="gcd"):
        primitive_orthogonality_sum(12, 4, 5)


def test_primitive_orthogonality_matches_brute_force():
    rng = np.random.default_rng(19)
    for q in (7, 9, 16, 24, 45, 60):
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        for _ in range(15):
            m, n = (units[i] for i in rng.integers(0, len(units), size=2))
            assert abs(primitive_orthogonality_sum(q, m, n) - brute_primitive_sum(q, m, n)) < 1e-10


def test_full_orthogonality():
    for d in (4, 9, 12, 35, 60):
        g = CharacterGroup(d)
        us = units(d)
        vals = g.values(us).reshape(-1, us.size)
        gram = vals.conj().T @ vals
        assert np.max(np.abs(gram - g.phi * np.eye(us.size))) < 1e-9


def test_enumeration_order_is_stable():
    first = [chi.exponents for chi in enumerate_characters(45)]
    second = [chi.exponents for chi in enumerate_characters(45)]
    assert first == second
    assert first[0] == (0, 0)
