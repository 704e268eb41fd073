"""Named verification suites with machine-readable pass/fail reports.

Each suite exercises one family of identities at fixed tolerances and
returns per-check residuals.  The suites double as a fast standalone health
check of the numerical core (`tauvar verify all`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Callable, Dict, List, Tuple

import numpy as np

from .arith import (
    dirichlet_convolve,
    divisors,
    euler_phi,
    factorize,
    phi_star,
    primes_upto,
    tau_k_of,
    tau_k_segment,
    tau_k_segments,
    units,
)
from .characters import (
    CharacterGroup,
    enumerate_characters,
    enumerate_primitive,
    gauss_sum,
    primitive_orthogonality_sum,
)
from .constants import (
    GAMMA3_PIECEWISE,
    a_k_d,
    a_k_value,
    convolution_compare,
    g_k,
    gamma_integral_check,
    gamma_k_mc,
    gamma_k_simple,
    local_factor,
    local_factor_series,
)
from .specfun import barnes_g, gamma_ratio, log_gamma
from .variance import CUTOFFS, compute_class_sums, variance_characters, variance_direct, variance_primitive
from .weights import make_bump_weight, mellin_decay_check, mellin_numeric, parseval_check

__all__ = ["CheckResult", "SuiteReport", "SUITE_NAMES", "run_verify"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: List[CheckResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float, detail: str = "") -> None:
        self.checks.append(
            CheckResult(name=name, passed=residual <= tol, residual=residual, tol=tol, detail=detail)
        )

    def add_flag(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(
            CheckResult(name=name, passed=ok, residual=0.0 if ok else 1.0, tol=0.0, detail=detail)
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_s": self.elapsed_s,
            "checks": [c.__dict__ for c in self.checks],
        }


def _suite_orthogonality() -> SuiteReport:
    rep = SuiteReport("orthogonality")
    # full orthogonality over all characters, every unit pair, d <= 60
    worst = 0.0
    for d in range(1, 61):
        group = CharacterGroup(d)
        us = units(d)
        vals = np.array([chi.values_on(us) for chi in enumerate_characters(group)])
        gram = vals.conj().T @ vals  # gram[i, j] = sum_chi conj(chi(u_i)) chi(u_j)
        target = np.eye(us.size) * group.phi
        worst = max(worst, float(np.max(np.abs(gram - target))))
    rep.add("full-orthogonality-d<=60", worst, 1e-9)

    # primitive-character orthogonality: divisor formula vs brute force
    rng = np.random.default_rng(20240601)
    worst = 0.0
    pairs_checked = 0
    for q in range(1, 101):
        group = CharacterGroup(q)
        prims = list(enumerate_primitive(group))
        us = [int(u) for u in units(q)] if q > 1 else [1]
        for _ in range(20):
            m, n = (int(us[i]) for i in rng.integers(0, len(us), size=2))
            formula = primitive_orthogonality_sum(q, m, n)
            brute = sum(chi(m) * np.conj(chi(n)) for chi in prims)
            worst = max(worst, abs(complex(brute) - formula))
            pairs_checked += 1
    rep.add("primitive-orthogonality-q<=100", worst, 1e-9, f"{pairs_checked} pairs")

    # phi_star decomposition count and induction bijection, d <= 200
    count_ok = True
    bijection_ok = True
    for d in range(1, 201):
        if sum(phi_star(q) for q in divisors(d)) != euler_phi(d):
            count_ok = False
        group = CharacterGroup(d)
        us = units(d)
        nonprincipal = {
            tuple(np.round(chi.values_on(us), 9).tolist())
            for chi in enumerate_characters(group)
            if not chi.is_principal
        }
        induced = set()
        for q in divisors(d):
            if q == 1:
                continue
            for chi1 in enumerate_primitive(q):
                induced.add(tuple(np.round(chi1.values_on(us % q), 9).tolist()))
        if induced != nonprincipal or len(induced) != euler_phi(d) - 1:
            bijection_ok = False
    rep.add_flag("phi-star-decomposition-d<=200", count_ok)
    rep.add_flag("induction-bijection-d<=200", bijection_ok)

    # parity consistency chi(-1) = (-1)^parity, d <= 100
    worst = 0.0
    for d in range(1, 101):
        for chi in enumerate_characters(d):
            worst = max(worst, abs(chi(d - 1 if d > 1 else 1) - (-1.0) ** chi.parity))
    rep.add("parity-consistency-d<=100", worst, 1e-12)
    return rep


def _suite_gauss() -> SuiteReport:
    rep = SuiteReport("gauss")
    worst = 0.0
    checked = 0
    for q in range(1, 51):
        for chi in enumerate_primitive(q):
            tau = gauss_sum(chi)
            worst = max(worst, abs(abs(tau) ** 2 - q))
            checked += 1
    rep.add("gauss-modulus-primitive-q<=50", worst, 1e-10, f"{checked} characters")
    return rep


def _suite_magic() -> SuiteReport:
    rep = SuiteReport("magic")
    ps = [int(p) for p in primes_upto(30)]  # first 10 primes
    worst = 0.0
    for k in range(2, 7):
        for p in ps:
            for s in (1.0, 2.0):
                closed = local_factor(k, p, s)
                series = local_factor_series(k, p, s)
                worst = max(worst, abs(closed - series) / abs(series))
    rep.add("closed-form-vs-series", worst, 1e-12, f"k=2..6, 10 primes, s in {{1,2}}")
    return rep


def _suite_gamma3() -> SuiteReport:
    rep = SuiteReport("gamma3")
    b1 = GAMMA3_PIECEWISE.branches[0][2]
    b2 = GAMMA3_PIECEWISE.branches[1][2]
    b3 = GAMMA3_PIECEWISE.branches[2][2]
    eval_at = lambda coeffs, c: sum(a * c**i for i, a in enumerate(coeffs))
    rep.add_flag(
        "continuity-at-1",
        eval_at(b1, Fraction(1)) == eval_at(b2, Fraction(1)) == Fraction(1, factorial(8)),
    )
    rep.add_flag(
        "continuity-at-2",
        eval_at(b2, Fraction(2)) == eval_at(b3, Fraction(2)) == Fraction(1, factorial(8)),
    )
    rep.add_flag("nine-factorial-integral-42", factorial(9) * GAMMA3_PIECEWISE.integral() == 42)
    # third branch = (3 - c)^8 / 8! exactly, coefficient by coefficient
    expanded = tuple(
        Fraction(comb(8, i) * 3 ** (8 - i) * (-1) ** i, factorial(8)) for i in range(9)
    )
    rep.add_flag("third-branch-equals-simple-form", b3 == expanded)
    # Monte Carlo agrees with both within 3 reported standard errors
    worst_z = 0.0
    for c in (2.1, 2.5, 2.9):
        est = gamma_k_mc(3, c, 10**6, seed=7)
        truth = gamma_k_simple(3, c)
        worst_z = max(worst_z, abs(est.value - truth) / est.error_estimate)
    rep.add("mc-vs-simple-3sigma", worst_z, 3.0, "z-score at c in {2.1, 2.5, 2.9}")
    return rep


def _suite_moment() -> SuiteReport:
    rep = SuiteReport("moment")
    rep.add_flag("g1=1", g_k(1) == 1)
    rep.add_flag("g2=2", g_k(2) == 2)
    rep.add_flag("g3=42", g_k(3) == 42)
    for k in (1, 2, 3):
        rep.add_flag(f"moment-integral-residual-k{k}", gamma_integral_check(k) == 0)
    return rep


def _suite_variance_equivalence() -> SuiteReport:
    rep = SuiteReport("variance-equivalence")
    worst = 0.0
    for k in (2, 3):
        for d in (4, 12, 35, 60, 101):
            for x in (1e3, 1e4):
                for cutoff in CUTOFFS:
                    cs = compute_class_sums(k, d, x, cutoff)
                    v_dir = variance_direct(k, d, x, cutoff, class_sums=cs)
                    v_chr = variance_characters(k, d, x, cutoff, class_sums=cs)
                    v_prm = variance_primitive(k, d, x, cutoff, class_sums=cs)
                    scale = max(abs(v_dir), 1e-300)
                    worst = max(
                        worst, abs(v_chr - v_dir) / scale, abs(v_prm - v_dir) / scale
                    )
                    if v_dir < 0:
                        worst = math.inf
    rep.add("three-way-agreement-grid", worst, 1e-9, "k in {2,3} x d in {4,12,35,60,101} x X in {1e3,1e4} x both cutoffs")
    rep.add_flag("zero-variance-at-d=1", variance_direct(2, 1, 100.0, "sharp") == 0.0)
    # worker-count independence on one configuration
    v1 = compute_class_sums(3, 12, 5e4, "smooth", segment_size=4096, workers=1)
    v2 = compute_class_sums(3, 12, 5e4, "smooth", segment_size=4096, workers=2)
    rep.add_flag("worker-count-independence", bool(np.array_equal(v1.sums, v2.sums)))
    return rep


def _suite_convolution_trend() -> SuiteReport:
    rep = SuiteReport("convolution-trend")
    for k in (2, 3):
        gaps = [convolution_compare(k, d)[2] for d in (101, 1009, 10007)]
        rep.add_flag(
            f"gap-decreasing-k{k}",
            gaps[0] > gaps[1] > gaps[2],
            f"gaps: {gaps[0]:.3e} > {gaps[1]:.3e} > {gaps[2]:.3e}",
        )
    # a_k(d) multiplicativity on coprime pairs
    rng = np.random.default_rng(20240602)
    worst = 0.0
    for _ in range(50):
        d1 = int(rng.integers(2, 4000))
        d2 = int(rng.integers(2, 4000))
        if gcd(d1, d2) != 1:
            continue
        k = int(rng.integers(2, 5))
        lhs = a_k_d(k, d1 * d2).value * a_k_value(k).value
        rhs = a_k_d(k, d1).value * a_k_d(k, d2).value
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    rep.add("a_k_d-multiplicativity", worst, 1e-12)
    # tail estimate monotone under doubling the prime bound
    ok = True
    for k in (2, 3, 4):
        v1 = a_k_value(k, 10**4)
        v2 = a_k_value(k, 2 * 10**4)
        if not (v2.error_estimate < v1.error_estimate and abs(v2.value - v1.value) < v1.error_estimate):
            ok = False
    rep.add_flag("a_k-tail-monotone", ok)
    return rep


def _suite_mellin_decay() -> SuiteReport:
    rep = SuiteReport("mellin-decay")
    w = make_bump_weight()
    # l = 0: sup |M| bounded by int |w|
    int_w = mellin_numeric(w, 1.0).value.real
    r0 = mellin_decay_check(w, 0, [0.0, 1.0, 5.0, 10.0, 20.0], sigmas=(0.5,))
    rep.add("l0-bounded-by-int-w", max(0.0, r0.sup - int_w), 1e-12, f"sup={r0.sup:.6f} int w={int_w:.6f}")
    # l = 3: scaled bound flat within a factor 10 over t in {10, 20, 40}
    vals = [
        (1.0 + t) ** 3 * abs(mellin_numeric(w, complex(0.5, t)).value) for t in (10.0, 20.0, 40.0)
    ]
    rep.add_flag(
        "l3-flat-within-factor-10",
        max(vals) / min(vals) < 10.0,
        f"bounds {vals[0]:.3e}, {vals[1]:.3e}, {vals[2]:.3e}",
    )
    # l = 1: at least first-order decay between t = 10 and t = 20
    m10 = abs(mellin_numeric(w, complex(0.5, 10.0)).value)
    m20 = abs(mellin_numeric(w, complex(0.5, 20.0)).value)
    rep.add_flag("l1-first-order-decay", m10 / m20 >= 2.0, f"ratio {m10 / m20:.2f}")
    rep.add_flag(
        "oscillatory-decay-40-vs-10",
        abs(mellin_numeric(w, complex(0.5, 40.0)).value) < m10,
    )
    rep.add("parseval-residual", parseval_check(w), 1e-6)
    # scaling w -> 2w multiplies both sides by 4; the identity still holds
    rep.add("parseval-residual-scaled", parseval_check(w.scaled(2.0)), 1e-6)
    # refinement consistency: tightening tol moves the value by < previous error
    ok = True
    for s in (1.0, complex(0.5, 7.0), complex(2.0, 25.0)):
        v1 = mellin_numeric(w, s, tol=1e-6)
        v2 = mellin_numeric(w, s, tol=5e-7)
        if abs(v2.value - v1.value) > max(v1.error, 1e-15):
            ok = False
    rep.add_flag("refinement-consistency", ok)
    return rep


def _suite_tau_sieve() -> SuiteReport:
    rep = SuiteReport("tau-sieve")
    # sieve agrees with the binomial formula pointwise on all of [1, 1e5]:
    # factor each n once, then form every tau_k from the same exponents
    segs = {k: tau_k_segment(k, 1, 10**5 + 1) for k in (2, 3, 4)}
    ok = True
    for n in range(1, 10**5 + 1):
        exps = [e for _, e in factorize(n).factors]
        for k in (2, 3, 4):
            formula = 1
            for e in exps:
                formula *= comb(k + e - 1, k - 1)
            if int(segs[k].values[n - 1]) != formula:
                ok = False
    rep.add_flag("sieve-vs-formula-pointwise-1e5", ok)
    # multiplicativity on random coprime pairs
    rng = np.random.default_rng(20240604)
    ok = True
    for k in (2, 3, 4):
        done = 0
        while done < 60:
            m = int(rng.integers(2, 1000))
            n = int(rng.integers(2, 1000))
            if gcd(m, n) != 1:
                continue
            if tau_k_of(k, m * n) != tau_k_of(k, m) * tau_k_of(k, n):
                ok = False
            done += 1
    rep.add_flag("multiplicativity", ok)
    # tau_k = tau_{k-1} * 1 under Dirichlet convolution, all n <= 1e4
    nmax = 10**4
    tau_rows = {k: tau_k_segment(k, 1, nmax + 1).values.astype(object) for k in (1, 2, 3, 4, 5)}
    ok = True
    for k in (2, 3, 4, 5):
        conv = np.zeros(nmax + 1, dtype=object)
        prev = tau_rows[k - 1]
        for a in range(1, nmax + 1):
            conv[a::a] += prev[a - 1]
        if not np.array_equal(conv[1:], tau_rows[k]):
            ok = False
    # spot-check the generic convolution helper against the array route
    ok = ok and dirichlet_convolve(lambda a: tau_k_of(2, a), lambda b: 1, 12) == tau_k_of(3, 12)
    rep.add_flag("convolution-recursion", ok)
    # segmentation independence
    whole = tau_k_segment(3, 1, 10**5 + 1)
    for size in (999, 4096, 10**5):
        parts = [seg.values for seg in tau_k_segments(3, 1, 10**5 + 1, size)]
        if not np.array_equal(np.concatenate(parts), whole.values):
            rep.add_flag(f"segmentation-independence-{size}", False)
            break
    else:
        rep.add_flag("segmentation-independence", True)
    # growth sanity: tau_3(n)/sqrt(n) stays order-one up to 1e6 and its sup
    # decays past the highly-composite hump (peak 11.41 at n = 5040)
    def tail_sup(lo: int, hi: int) -> float:
        worst = 0.0
        for seg in tau_k_segments(3, lo, hi + 1, 1 << 20):
            n = np.arange(seg.lo, seg.hi, dtype=np.float64)
            worst = max(worst, float(np.max(seg.values.astype(np.float64) / np.sqrt(n))))
        return worst

    rep.add("tau3-growth-max", tail_sup(1, 10**6), 16.0, "max tau_3(n)/sqrt(n), n <= 1e6")
    rep.add_flag(
        "tau3-growth-sup-decays",
        tail_sup(10**5, 10**6) < tail_sup(10**3, 10**4),
        "sup over [1e5,1e6] below sup over [1e3,1e4]",
    )
    return rep


@lru_cache(maxsize=4)
def _bernoulli_b2m(count: int) -> Tuple[Fraction, ...]:
    """B_2, B_4, ..., B_{2*count} by the Akiyama-Tanigawa algorithm, exact."""
    nmax = 2 * count
    row = [Fraction(1, j + 1) for j in range(nmax + 1)]
    bern: List[Fraction] = []
    for m in range(nmax + 1):
        if m >= 2 and m % 2 == 0:
            bern.append(row[0])
        for j in range(nmax - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
    return tuple(bern)


def _stirling_log_gamma(s: complex, terms: int = 50, shift: int = 30) -> complex:
    """Independent log Gamma oracle: recurrence shift + asymptotic series."""
    z = complex(s)
    corr = 0.0 + 0.0j
    for _ in range(shift):
        corr += np.log(z)
        z += 1.0
    bern = _bernoulli_b2m(terms)
    out = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi)
    for m in range(1, terms + 1):
        out += float(bern[m - 1]) / (2 * m * (2 * m - 1) * z ** (2 * m - 1))
    return out - corr


def _suite_specfun() -> SuiteReport:
    rep = SuiteReport("specfun")
    rep.add("log-gamma-at-1", abs(log_gamma(1.0)), 1e-14)
    rep.add("log-gamma-at-2", abs(log_gamma(2.0)), 1e-14)
    rep.add("log-gamma-at-half", abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))), 1e-14)
    s = complex(3.7, 2.1)
    rep.add(
        "log-gamma-recurrence",
        abs(log_gamma(s + 1) - log_gamma(s) - np.log(s)),
        1e-12,
    )
    rng = np.random.default_rng(20240605)
    worst = 0.0
    for _ in range(100):
        s = complex(1.0 + 2.0 * rng.random(), 200.0 * rng.random() - 100.0)
        ref = _stirling_log_gamma(s)
        worst = max(worst, abs(log_gamma(s) - ref) / max(abs(ref), 1.0))
    rep.add("stirling-consistency-100pts", worst, 1e-11)
    # |g_a(1/2 + it)| = 1 out to t = 600, where the bump's W(1/2 + it) is 1e-11
    t = np.linspace(0.0, 600.0, 30001)
    worst = 0.0
    for a in (0, 1):
        g = gamma_ratio(0.5 + 1j * t, a)
        worst = max(worst, float(np.max(np.abs(np.abs(g) - 1.0))))
    rep.add("critical-line-unimodularity", worst, 1e-11, "a in {0, 1}, t in [0, 600], dt = 0.02")
    ok = all(factorial(k * k - 1) % barnes_g(k + 1) ** 2 == 0 for k in range(1, 9))
    rep.add_flag("barnes-g-divides-denominators", ok)
    return rep


_SUITES: Dict[str, Callable[[], SuiteReport]] = {
    "orthogonality": _suite_orthogonality,
    "gauss": _suite_gauss,
    "magic": _suite_magic,
    "gamma3": _suite_gamma3,
    "moment": _suite_moment,
    "variance-equivalence": _suite_variance_equivalence,
    "convolution-trend": _suite_convolution_trend,
    "mellin-decay": _suite_mellin_decay,
    "tau-sieve": _suite_tau_sieve,
    "specfun": _suite_specfun,
}

SUITE_NAMES = tuple(_SUITES)


def run_verify(suite: str) -> SuiteReport:
    """Run one named suite; unknown names list the valid ones."""
    fn = _SUITES.get(suite)
    if fn is None:
        raise ValueError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITE_NAMES)}")
    start = time.perf_counter()
    rep = fn()
    rep.elapsed_s = time.perf_counter() - start
    return rep
