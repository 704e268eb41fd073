"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one pass/fail line (visible with pytest -s); the
assertion carries the measured numbers, so a red criterion documents itself.
Run:  pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time

import numpy as np
import pytest

from tauvar.constants import a_k_d, a_k_value, g_k, gamma_integral_check, gamma_k_mc, gamma_k_simple
from tauvar.plotting import emit_plot
from tauvar.sweep import SweepConfig, run_sweep
from tauvar.variance import experiment, variance_characters, variance_direct
from tauvar.verify import run_verify

WORKERS = min(8, os.cpu_count() or 1)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}  {detail}")


def verified(*suites: str):
    """Run the named verify suites: their checks by name, and their total time."""
    reports = [run_verify(suite) for suite in suites]
    return {c.name: c for r in reports for c in r.checks}, sum(r.elapsed_s for r in reports)


def flags(checks, *names: str):
    """Pass/fail of the named checks; a name the suites lack raises KeyError."""
    return {name: checks[name].passed for name in names}


def test_criterion_01_three_way_variance_equivalence():
    checks, elapsed = verified("variance-equivalence")
    worst = checks["three-way-agreement-grid"].residual
    others = flags(checks, "zero-variance-at-d=1", "worker-count-independence")
    ok = worst < 1e-9 and all(others.values()) and elapsed < 120.0
    report(1, "three-way variance equivalence", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-9
    assert all(others.values()), others
    assert elapsed < 120.0


def test_criterion_02_hand_oracle():
    v_dir = variance_direct(2, 4, 10.0, "sharp")
    v_chr = variance_characters(2, 4, 10.0, "sharp")
    ok = v_dir == 2.0 and v_chr == 2.0
    report(2, "hand oracle (k=2, d=4, X=10) = 2 exactly", ok, f"direct={v_dir}, characters={v_chr}")
    assert v_dir == 2.0 and v_chr == 2.0


def test_criterion_03_local_factor_identity():
    checks, _ = verified("magic")
    worst = checks["closed-form-vs-series"].residual
    ok = worst <= 1e-12
    report(3, "local-factor closed form vs direct series", ok, f"worst rel {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_04_gamma3_suite():
    checks, _ = verified("gamma3")
    cont1, cont2, integral42, simple_form, mc = flags(
        checks,
        "continuity-at-1",
        "continuity-at-2",
        "nine-factorial-integral-42",
        "third-branch-equals-simple-form",
        "mc-vs-simple-3sigma",
    ).values()
    ok = cont1 and cont2 and integral42 and simple_form and mc
    report(
        4,
        "gamma_3 piecewise suite (continuity, 42, closed form)",
        ok,
        f"cont@1={cont1} cont@2={cont2} 9!int={integral42} branch3={simple_form}",
    )
    assert cont1 and cont2 and integral42 and simple_form
    assert mc, checks["mc-vs-simple-3sigma"]


def test_criterion_05_moment_constants():
    values = (g_k(1), g_k(2), g_k(3))
    residuals = tuple(gamma_integral_check(k) for k in (1, 2, 3))
    ok = values == (1, 2, 42) and residuals == (0, 0, 0)
    report(5, "moment constants g_1, g_2, g_3 and integral residuals", ok, f"g={values}")
    assert values == (1, 2, 42)
    assert residuals == (0, 0, 0)


def test_criterion_06_monte_carlo_gamma():
    start = time.perf_counter()
    failures = []
    details = []
    for k, c, truth in [
        (2, 0.5, 0.5**3 / 6.0),
        (3, 2.1, gamma_k_simple(3, 2.1)),
        (3, 2.5, gamma_k_simple(3, 2.5)),
        (3, 2.9, gamma_k_simple(3, 2.9)),
    ]:
        est = gamma_k_mc(k, c, 10**7, seed=1)
        z = abs(est.value - truth) / est.error_estimate
        rel = abs(est.value - truth) / truth
        details.append(f"(k={k},c={c}): z={z:.2f} rel={rel:.3%}")
        if z > 3.0 or rel > 0.01:
            failures.append(details[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 180.0
    report(6, "Monte-Carlo gamma_k at 1e7 samples", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 180.0


def test_criterion_07_a_k_engine():
    a2 = a_k_value(2, 10**6)
    err2 = abs(a2.value - 6.0 / math.pi**2)
    rng = np.random.default_rng(31)
    ak = {k: a_k_value(k).value for k in (2, 3, 4)}
    worst = 0.0
    checked = 0
    while checked < 50:
        d1, d2 = int(rng.integers(2, 3000)), int(rng.integers(2, 3000))
        if math.gcd(d1, d2) != 1:
            continue
        k = int(rng.integers(2, 5))
        lhs = a_k_d(k, d1 * d2).value * ak[k]
        rhs = a_k_d(k, d1).value * a_k_d(k, d2).value
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
        checked += 1
    ok = err2 < 5e-7 and worst < 1e-12
    report(7, "a_k engine", ok, f"|a_2 - 6/pi^2| = {err2:.2e}; multiplicativity {worst:.2e}")
    assert err2 < 5e-7
    assert worst < 1e-12


def test_criterion_08_character_suite():
    checks, _ = verified("orthogonality", "gauss")
    worst_orth = checks["full-orthogonality-d<=60"].residual
    worst_prim = checks["primitive-orthogonality-q<=100"].residual
    worst_gauss = checks["gauss-modulus-primitive-q<=50"].residual
    gauss_transform = checks["gauss-transform-vs-direct-q<=50"].residual
    count_ok = checks["phi-star-decomposition-d<=200"].passed
    others = flags(checks, "induction-bijection-d<=200", "parity-consistency-d<=100")
    ok = (
        worst_orth < 1e-9
        and worst_prim < 1e-9
        and worst_gauss < 1e-10
        and gauss_transform < 1e-12
        and count_ok
        and all(others.values())
    )
    report(
        8,
        "character suite",
        ok,
        f"orth {worst_orth:.2e}; divisor-formula {worst_prim:.2e}; gauss {worst_gauss:.2e}; "
        f"gauss transform {gauss_transform:.2e}; counts {count_ok}",
    )
    assert worst_orth < 1e-9
    assert worst_prim < 1e-9
    assert worst_gauss < 1e-10
    assert gauss_transform < 1e-12
    assert count_ok
    assert all(others.values()), others


def test_criterion_09_gamma_factor_unimodular():
    checks, _ = verified("specfun")
    worst = checks["critical-line-unimodularity"].residual
    ok = worst < 1e-11
    report(9, "gamma factor unimodular on the critical line", ok, f"worst {worst:.2e}")
    assert worst < 1e-11


def test_criterion_10_convolution_trend():
    checks, _ = verified("convolution-trend")
    trend = flags(checks, "gap-decreasing-k2", "gap-decreasing-k3")
    details = [f"k={k}: {checks[f'gap-decreasing-k{k}'].detail}" for k in (2, 3)]
    others = flags(checks, "a_k_d-multiplicativity", "a_k-tail-monotone")
    ok = all(trend.values()) and all(others.values())
    report(10, "average-vs-pointwise a_k(d) gap shrinks along primes", ok, "; ".join(details))
    assert all(trend.values()), details
    assert all(others.values()), others


@pytest.fixture(scope="module")
def desk_scale_reports():
    t0 = time.perf_counter()
    big = experiment(3, 1009, 2.6, cutoff="smooth", workers=WORKERS)
    elapsed = time.perf_counter() - t0
    small = experiment(3, 101, 2.6, cutoff="smooth", workers=WORKERS)
    return big, small, elapsed


def test_criterion_11a_desk_scale_runtime(desk_scale_reports):
    big, _, elapsed = desk_scale_reports
    ok = elapsed < 600.0 and big.x == pytest.approx(1009.0**2.6)
    report(
        11,
        "desk-scale probe runtime (k=3, d=1009, c=2.6, smooth)",
        ok,
        f"X={big.x:.3e}, {elapsed:.0f}s on {WORKERS} workers",
    )
    assert elapsed < 600.0


def test_criterion_11b_desk_scale_trend(desk_scale_reports):
    big, small, _ = desk_scale_reports
    ok = abs(big.ratio - 1.0) < abs(small.ratio - 1.0)
    report(
        11,
        "desk-scale trend toward the conjecture (d=1009 vs d=101)",
        ok,
        f"|{big.ratio:.4g} - 1| < |{small.ratio:.4g} - 1|",
    )
    assert ok, (big.ratio, small.ratio)


def test_criterion_11c_desk_scale_ratio_bracket():
    # The conjecture is a limit d -> infinity at fixed c in (k-1, k); the dual
    # sum from the functional equation of L(s, chi)^k has length about
    # d^(k-c), and the leading term only dominates once (k-c) log d is large.
    # At the 11a/11b probe (k=3, d=1009, c=2.6) that product is 2.77, the
    # lower-order terms dominate, and the ratio (~4e4) follows (k-c) log d
    # rather than any fixed factor.  At k=2, d=10007, c=1.5 with the sharp
    # cutoff it is 4.6 and the ratio is ~1.26, so a main term off by
    # (k^2-1)! = 6 in either direction would leave the bracket.
    r = experiment(2, 10007, 1.5, cutoff="sharp", workers=WORKERS)
    ok = 0.3 <= r.ratio <= 3.0
    report(
        11,
        "desk-scale ratio within [0.3, 3.0] (k=2, d=10007, c=1.5, sharp)",
        ok,
        f"measured ratio {r.ratio:.6g} (variance {r.variance:.6e}, main term {r.main_term:.6e})",
    )
    assert ok, (
        f"variance/main_term = {r.ratio:.6g} at (k=2, d=10007, c=1.5, sharp), "
        f"outside [0.3, 3.0]; here (k-c) log d = 4.6 and the leading term "
        f"a_k(d) gamma_k(c) X (log d)^(k^2-1) should dominate, so the main term "
        f"or the variance is mis-normalized"
    )


def test_criterion_12_sweep_determinism(tmp_path):
    base = dict(
        k_list=(2, 3), d_list=(4, 12, 35), c_list=(1.1, 1.9), cutoff="smooth",
        gamma_method="mc", samples=10**4, seed=3,
    )
    res1 = run_sweep(SweepConfig(**base, workers=1), out_dir=tmp_path / "w1")
    res8 = run_sweep(SweepConfig(**base, workers=8), out_dir=tmp_path / "w8")
    res1b = run_sweep(SweepConfig(**base, workers=1), out_dir=tmp_path / "w1b")

    def strip_runtime(path):
        return "\n".join(",".join(l.split(",")[:-1]) for l in path.read_text().splitlines())

    t1, t8, t1b = (strip_runtime(r.csv_path) for r in (res1, res8, res1b))
    ok = t1 == t8 == t1b and res1.ok and res8.ok
    report(12, "sweep determinism across runs and worker counts", ok, f"{len(res1.records)} rows")
    assert t1 == t8 == t1b
    assert res1.ok and res8.ok


def test_criterion_13_figure_reproduction(tmp_path):
    import json
    import re

    out = emit_plot("gamma3", tmp_path / "gamma3.svg")
    meta = json.loads(re.search(r"<metadata>(.*?)</metadata>", out.read_text(), re.S).group(1))
    table = dict(zip(meta["x"], meta["y"]))
    checks = {
        "y(0)=0": table[0.0] == 0.0,
        "y(1)=9": abs(table[1.0] - 9.0) < 1e-9,
        "y(2)=9": abs(table[2.0] - 9.0) < 1e-9,
        "y(3)=0": abs(table[3.0]) < 1e-12,
    }
    ok = all(checks.values())
    report(13, "gamma_3 figure spot checks", ok, str(checks))
    assert ok, checks
