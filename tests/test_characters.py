"""Character groups: construction, evaluation, conductor, induction, Gauss sums."""

import math

import numpy as np
import pytest

from tauvar.arith import divisors, euler_phi, factorize, phi_star, units
from tauvar.characters import (
    CharacterGroup,
    conductor,
    enumerate_characters,
    enumerate_primitive,
    gauss_sum,
    primitive_orthogonality_sum,
)


def brute_conductor(chi):
    """Oracle: least f | d with chi trivial on every unit u = 1 (mod f)."""
    d = chi.group.d
    for f in divisors(d):
        if all(
            abs(chi(u) - 1.0) < 1e-12
            for u in range(1, d + 1)
            if math.gcd(u, d) == 1 and u % f == 1 % f
        ):
            return f
    return d


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
    assert sum(1 for c in chis if not c.is_principal) == 3
    assert len(list(enumerate_primitive(4))) == 1
    assert len(list(enumerate_primitive(2))) == 0
    for q in range(1, 61):
        assert len(list(enumerate_primitive(q))) == phi_star(q)
        assert len(list(enumerate_characters(q))) == euler_phi(q)


def test_char_eval_examples():
    for d in (1, 4, 9, 12):
        for chi in enumerate_characters(d):
            assert chi(1) == 1
    chi4 = [c for c in enumerate_characters(4) if not c.is_principal][0]
    assert chi4(3) == -1
    # order-4 characters mod 5 send the generator 2 to a primitive 4th root
    quartics = [c for c in enumerate_characters(5) if c.order() == 4]
    values = sorted((complex(c(2)) for c in quartics), key=lambda z: z.imag)
    assert values == [-1j, 1j]


def test_char_eval_vanishes_off_units():
    for d in (4, 12, 45):
        for chi in enumerate_characters(d):
            for n in range(2 * d):
                if math.gcd(n, d) > 1:
                    assert chi(n) == 0
                else:
                    assert abs(abs(chi(n)) - 1.0) < 1e-14


def test_complete_multiplicativity():
    rng = np.random.default_rng(17)
    for d in (5, 8, 12, 45):
        units = [a for a in range(1, d + 1) if math.gcd(a, d) == 1]
        for chi in enumerate_characters(d):
            for _ in range(10):
                m, n = (units[i] for i in rng.integers(0, len(units), size=2))
                assert abs(chi(m * n) - chi(m) * chi(n)) < 1e-13


def test_parity():
    for d in range(1, 80):
        for chi in enumerate_characters(d):
            target = 1.0 if chi.parity == 0 else -1.0
            assert abs(chi(d - 1 if d > 1 else 1) - target) < 1e-13


def test_conductor_examples():
    principal12 = next(iter(enumerate_characters(12)))
    assert principal12.is_principal and conductor(principal12) == 1
    chi4 = [c for c in enumerate_characters(4) if not c.is_principal][0]
    # chi4 induced to modulus 8: its values on the units mod 8 reduced mod 4
    us8 = units(8)
    (lifted,) = [
        c for c in enumerate_characters(8) if np.array_equal(c.values_on(us8), chi4.values_on(us8 % 4))
    ]
    assert conductor(lifted) == 4 == brute_conductor(lifted)
    for chi in enumerate_characters(5):
        if not chi.is_principal:
            assert conductor(chi) == 5


def test_conductor_matches_brute_force():
    for d in list(range(1, 41)) + [48, 56, 63, 64, 80, 81, 125]:
        for chi in enumerate_characters(d):
            assert conductor(chi) == brute_conductor(chi), (d, chi.exponents)


def test_transform_matches_character_sums():
    # every coefficient on its own: a wrong discrete-log order or scatter
    # would keep the sum of |t|^2 but move or mix the entries
    rng = np.random.default_rng(23)

    def check(q, residues):
        v = rng.standard_normal(residues.size)
        t = CharacterGroup(q).transform(residues, v)
        for chi in enumerate_characters(q):
            want = np.sum(np.conj(chi.values_on(residues)) * v)
            assert abs(t[chi.exponents] - want) < 1e-12 * np.abs(v).sum(), (q, chi.exponents)

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
        direct = {
            tuple(np.round(chi.values_on(us), 9))
            for chi in enumerate_characters(d)
            if not chi.is_principal
        }
        induced = set()
        for q in divisors(d):
            if q == 1:
                continue
            for chi1 in enumerate_primitive(q):
                induced.add(tuple(np.round(chi1.values_on(us % q), 9)))
        assert direct == induced
        assert len(induced) == euler_phi(d) - 1


def test_gauss_sum_examples():
    principal1 = next(iter(enumerate_characters(1)))
    assert gauss_sum(principal1) == 1
    quadratic5 = [c for c in enumerate_characters(5) if c.order() == 2][0]
    tau = gauss_sum(quadratic5)
    assert abs(tau.imag) < 1e-12 and abs(tau.real - math.sqrt(5)) < 1e-12
    for q in range(3, 51):
        for chi in enumerate_primitive(q):
            assert abs(abs(gauss_sum(chi)) ** 2 - q) < 1e-10


def test_primitive_orthogonality_examples():
    assert primitive_orthogonality_sum(12, 5, 5) == phi_star(12) == 1
    assert primitive_orthogonality_sum(7, 1, 1) == 5
    brute = sum(chi(2) * np.conj(chi(3)) for chi in enumerate_primitive(5))
    assert abs(primitive_orthogonality_sum(5, 2, 3) - complex(brute)) < 1e-12
    with pytest.raises(ValueError, match="gcd"):
        primitive_orthogonality_sum(12, 4, 5)


def test_primitive_orthogonality_matches_brute_force():
    rng = np.random.default_rng(19)
    for q in (7, 9, 16, 24, 45, 60):
        prims = list(enumerate_primitive(q))
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        for _ in range(15):
            m, n = (units[i] for i in rng.integers(0, len(units), size=2))
            brute = sum(chi(m) * np.conj(chi(n)) for chi in prims)
            assert abs(primitive_orthogonality_sum(q, m, n) - complex(brute)) < 1e-10


def test_full_orthogonality():
    for d in (4, 9, 12, 35, 60):
        g = CharacterGroup(d)
        us = units(d)
        vals = np.array([chi.values_on(us) for chi in enumerate_characters(g)])
        gram = vals.conj().T @ vals
        assert np.max(np.abs(gram - g.phi * np.eye(us.size))) < 1e-9


def test_enumeration_order_is_stable():
    first = [chi.exponents for chi in enumerate_characters(45)]
    second = [chi.exponents for chi in enumerate_characters(45)]
    assert first == second
    assert first[0] == (0, 0)
