"""The four benchmark workloads: inputs, the timed parts, their checks, and
the per-layer metrics taken from a traced in-process replay.

A workload's fixed work is a list of parts, each one call into tauvar's
public API.  The benchmark runs the parts in order, over and over, in a
closed loop with one caller: each call starts only after the previous one
returned.  Part functions take the outputs of the earlier parts of the same
cycle and look tauvar's functions up when called, so the traced replay sees
the timing wrappers.  `parts(inp, 1)` is the in-process replay, where spans
around the public functions see every layer, including the ones that run in
pool workers at the workload's own worker count.  README.md in this
directory says why each workload was chosen and which layers it loads.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import random
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from spans import Span, Target, summarize

import tauvar
from tauvar import arith, characters, constants, sweep, variance, weights

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Tolerance of the repo's three-way variance gate, used for every float check.
REL_TOL = 1e-9
# Monte Carlo gamma must land within this many standard errors of the exact value.
MC_SIGMAS = 4.0
# Worker processes for the pool-backed workloads: at most nproc, and 2 at most.
WORKERS = min(2, os.cpu_count() or 1)
ROUTES = ("direct", "characters", "primitive")

# One part of a workload's fixed work: a label and fn(outputs so far) -> output.
Part = Tuple[str, Callable[[dict], object]]


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _n_entries(args, kwargs, result) -> dict:
    return {"entries": int(result.values.size), "bytes": int(result.values.nbytes)}


def _n_weights(args, kwargs, result) -> dict:
    return {"entries": int(result.size), "bytes": int(result.nbytes)}


def _mc_key(args, kwargs, result) -> dict:
    return {"key": repr(args[:4]), "samples": int(result.params.get("samples", 0))}


def _akd_key(args, kwargs, result) -> dict:
    return {"key": repr((args, sorted(kwargs.items())))}


def targets() -> List[Target]:
    """Every public function the traced replays time, with its span name."""
    return [
        Target(arith, "tau_k_segment", "arith.tau_k_segment", note=_n_entries),
        Target(arith, "primes_upto", "arith.primes_upto"),
        Target(arith, "factorize", "arith.factorize"),
        Target(arith, "tau_k_of", "arith.tau_k_of"),
        Target(weights, "make_bump_weight", "weights.make_bump_weight"),
        Target(weights.SmoothWeight, "values", "weights.values", note=_n_weights),
        Target(variance, "compute_class_sums", "variance.compute_class_sums"),
        Target(variance, "variance_direct", "variance.variance_direct"),
        Target(variance, "variance_characters", "variance.variance_characters"),
        Target(variance, "variance_primitive", "variance.variance_primitive"),
        Target(variance, "experiment", "variance.experiment"),
        Target(characters.CharacterGroup, "__init__", "characters.CharacterGroup"),
        Target(characters, "enumerate_characters", "characters.enumerate_characters", generator=True),
        Target(characters, "enumerate_primitive", "characters.enumerate_primitive", generator=True),
        Target(characters.DirichletCharacter, "values_on", "characters.values_on"),
        Target(constants, "gamma_k_mc", "constants.gamma_k_mc", note=_mc_key),
        Target(constants, "a_k_d", "constants.a_k_d", note=_akd_key),
        Target(sweep, "run_sweep", "sweep.run_sweep"),
    ]


class Layers:
    """Span totals of one traced replay, looked up by span name."""

    def __init__(self, spans: Sequence[Span], wall: float):
        self.spans = spans
        self.wall = wall
        self.rows = summarize(spans)

    def calls(self, name: str) -> int:
        return int(self.rows.get(name, {}).get("calls", 0))

    def total(self, name: str) -> float:
        return self.rows.get(name, {}).get("total_s", 0.0)

    def self_s(self, name: str) -> float:
        return self.rows.get(name, {}).get("self_s", 0.0)

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(s.attrs[attr] for s in self.spans if s.name == name and s.attrs)

    def distinct_frac(self, name: str) -> float:
        keys = [s.attrs["key"] for s in self.spans if s.name == name and s.attrs]
        return len(set(keys)) / len(keys) if keys else 0.0

    def share(self, layer: str) -> float:
        own = sum(r["self_s"] for n, r in self.rows.items() if n.split(".")[0] == layer)
        return own / self.wall


def _sieve_metrics(prefix: str, lay: Layers) -> Dict[str, tuple]:
    entries = lay.attr_sum("arith.tau_k_segment", "entries")
    sieve_s = lay.total("arith.tau_k_segment")
    return {
        f"{prefix}.arith.sieve_s": (sieve_s, "s"),
        f"{prefix}.arith.sieve_entries": (entries, "count"),
        f"{prefix}.arith.sieve_mentries_per_s": (entries / sieve_s / 1e6, "M/s"),
        f"{prefix}.arith.primes_s": (lay.total("arith.primes_upto"), "s"),
        f"{prefix}.arith.primes_calls": (lay.calls("arith.primes_upto"), "count"),
    }


def _shares(prefix: str, lay: Layers, layers: Sequence[str]) -> Dict[str, tuple]:
    return {f"{prefix}.self_share.{layer}": (lay.share(layer), "frac") for layer in layers}


# --- desk-probe -------------------------------------------------------------


class DeskProbe:
    name = "desk-probe"
    setup_code = (
        "import tauvar.variance, tauvar.weights\n"
        "t0 = time.perf_counter()\n"
        "tauvar.weights.make_bump_weight()\n"
        "weight_s = time.perf_counter() - t0"
    )
    # Report fields that echo a library setting rather than an output; a
    # change of the default window size must not fail the check.
    echoed = ("segment_size",)
    # The closed-form gamma leaves the Monte Carlo estimator out.
    bypassed = ("constants.gamma_k_mc",)

    def inputs(self, seed: int, smoke: bool, work_dir: Path) -> dict:
        # The ROADMAP anchor at the library's default window size; it has no
        # random part, so the seed is unused.
        if smoke:
            return dict(k=3, d=101, c=2.6, cutoff="smooth", curve_span=1 << 16, ref="smoke")
        return dict(k=3, d=1009, c=2.6, cutoff="smooth", curve_span=1 << 22, ref="full")

    def parts(self, inp: dict, workers: int) -> List[Part]:
        def probe(done):
            return variance.experiment(inp["k"], inp["d"], inp["c"], inp["cutoff"], workers=workers)

        return [("experiment", probe)]

    def check(self, inp: dict, outs: dict, ref: dict) -> List[str]:
        want = ref[self.name][inp["ref"]]
        got = outs["experiment"].to_dict()
        bad = []
        for key, expected in want.items():
            if key in self.echoed:
                continue
            value = got[key]
            if key == "code_version":
                expected = tauvar.__version__
            if isinstance(expected, float) and isinstance(value, float):
                ok = rel_diff(value, expected) <= REL_TOL
            else:
                ok = value == expected
            if not ok:
                bad.append(f"{key}: got {value!r}, reference {expected!r}")
        return bad

    def sieve_curve(self, inp: dict) -> Dict[str, tuple]:
        """The same sub-range of the probe sieved at each window size."""
        lo = int(math.floor(float(inp["d"]) ** inp["c"])) + 1
        hi = lo + inp["curve_span"]
        out = {}
        for bits in (16, 18, 20, 22):
            w = min(1 << bits, inp["curve_span"])
            t0 = time.perf_counter()
            n = sum(seg.values.size for seg in arith.tau_k_segments(inp["k"], lo, hi, segment_size=w))
            rate = n / (time.perf_counter() - t0) / 1e6
            out[f"{self.name}.arith.sieve_mentries_per_s.w{bits}"] = (rate, "M/s")
        return out

    def layer_metrics(self, inp: dict, lay: Layers) -> Dict[str, tuple]:
        p = self.name
        seg_bytes = [s.attrs["bytes"] for s in lay.spans if s.name == "arith.tau_k_segment"]
        w_bytes = [s.attrs["bytes"] for s in lay.spans if s.name == "weights.values"]
        window = max(seg_bytes) + (max(w_bytes) if w_bytes else 0)
        class_sums = lay.total("variance.compute_class_sums")
        out = _sieve_metrics(p, lay)
        out.update({
            f"{p}.arith.window_bytes_computed": (window, "B"),
            f"{p}.weights.eval_s": (lay.total("weights.values"), "s"),
            f"{p}.weights.evals": (lay.attr_sum("weights.values", "entries"), "count"),
            f"{p}.variance.class_sums_s": (class_sums, "s"),
            f"{p}.variance.segments": (lay.calls("arith.tau_k_segment"), "count"),
            f"{p}.variance.accumulate_self_s": (lay.self_s("variance.compute_class_sums"), "s"),
            f"{p}.constants.a_k_d_s": (lay.total("constants.a_k_d"), "s"),
            f"{p}.constants.a_k_d_calls": (lay.calls("constants.a_k_d"), "count"),
        })
        out.update(_shares(p, lay, ("arith", "weights", "variance", "constants")))
        out.update(self.sieve_curve(inp))
        return out


# --- char-routes ------------------------------------------------------------


class CharRoutes:
    name = "char-routes"
    setup_code = "import tauvar.variance, tauvar.characters"
    # The sharp cutoff leaves the smooth weight out.
    bypassed = ("weights.values",)

    def inputs(self, seed: int, smoke: bool, work_dir: Path) -> dict:
        # Fixed moduli: one prime (one cyclic component) and 27720 = 2^3 3^2 5 7 11,
        # whose 2-part carries the (-1, 5) generator pair.  The seed is unused.
        ds = (1009, 2520) if smoke else (10007, 27720)
        return dict(k=2, ds=ds, c=1.2, cutoff="sharp", ref="smoke" if smoke else "full")

    def parts(self, inp: dict, workers: int) -> List[Part]:
        k, c, cut = inp["k"], inp["c"], inp["cutoff"]
        out: List[Part] = []
        for d in inp["ds"]:
            x = float(d) ** c

            def class_sums(done, d=d, x=x):
                return variance.compute_class_sums(k, d, x, cut)

            out.append((f"class_sums {d}", class_sums))
            for route in ROUTES:
                def var(done, d=d, x=x, route=route):
                    fn = getattr(variance, f"variance_{route}")
                    return fn(k, d, x, cut, class_sums=done[f"class_sums {d}"])

                out.append((f"{route} {d}", var))
        return out

    def check(self, inp: dict, outs: dict, ref: dict) -> List[str]:
        want = ref[self.name][inp["ref"]]
        bad = []
        for d in inp["ds"]:
            v_dir, v_chr, v_prim = (outs[f"{route} {d}"] for route in ROUTES)
            worst = max(rel_diff(v_dir, v_chr), rel_diff(v_dir, v_prim), rel_diff(v_chr, v_prim))
            if worst > REL_TOL:
                bad.append(f"d={d}: routes disagree by {worst:.3e} relative")
            if rel_diff(v_dir, want[str(d)]) > REL_TOL:
                bad.append(f"d={d}: direct variance {v_dir!r} != reference {want[str(d)]!r}")
        return bad

    def layer_metrics(self, inp: dict, lay: Layers) -> Dict[str, tuple]:
        p = self.name
        # Characters enumerated inside enumerate_primitive, against those it yields.
        prim_ids = {s.id for s in lay.spans if s.name == "characters.enumerate_primitive"}
        inner = sum(
            1 for s in lay.spans
            if s.name == "characters.enumerate_characters" and s.parent in prim_ids and not s.attrs
        )
        prim = sum(1 for s in lay.spans if s.id in prim_ids and not s.attrs)
        enumerated = sum(
            1 for s in lay.spans if s.name == "characters.enumerate_characters" and not s.attrs
        )
        routes = lay.total("variance.variance_characters") + lay.total("variance.variance_primitive")
        out = {
            f"{p}.arith.sieve_s": (lay.total("arith.tau_k_segment"), "s"),
            f"{p}.variance.class_sums_s": (lay.total("variance.compute_class_sums"), "s"),
            f"{p}.variance.direct_s": (lay.total("variance.variance_direct"), "s"),
            f"{p}.variance.characters_s": (lay.total("variance.variance_characters"), "s"),
            f"{p}.variance.primitive_s": (lay.total("variance.variance_primitive"), "s"),
            f"{p}.variance.routes_share": (routes / lay.wall, "frac"),
            f"{p}.characters.group_s": (lay.total("characters.CharacterGroup"), "s"),
            f"{p}.characters.groups_built": (lay.calls("characters.CharacterGroup"), "count"),
            f"{p}.characters.enumerate_s": (
                lay.total("characters.enumerate_characters") + lay.self_s("characters.enumerate_primitive"), "s"),
            f"{p}.characters.chars_enumerated": (enumerated, "count"),
            f"{p}.characters.values_s": (lay.total("characters.values_on"), "s"),
            f"{p}.characters.chars_summed": (lay.calls("characters.values_on"), "count"),
            f"{p}.characters.primitive_useful_frac": (prim / inner if inner else 0.0, "frac"),
        }
        out.update(_shares(p, lay, ("arith", "variance", "characters")))
        return out


# --- sweep-mc ---------------------------------------------------------------

SWEEP_CONFIG = """\
k = 2,3
d = primes:{d_range}
c = 1.3,1.7
cutoff = smooth
gamma_method = mc
samples = {samples}
seed = {mc_seed}
workers = {workers}
"""


class SweepMC:
    name = "sweep-mc"
    bypassed = ()
    setup_code = (
        "import tauvar.sweep, tauvar.weights; "
        "tauvar.sweep.parse_config('k = 2,3\\nd = primes:100..300\\nc = 1.3,1.7\\n"
        "cutoff = smooth\\ngamma_method = mc\\nsamples = 1000000\\n'); "
        "tauvar.weights.make_bump_weight()"
    )

    def inputs(self, seed: int, smoke: bool, work_dir: Path) -> dict:
        mc_seed = random.Random(f"sweep-mc:{seed}").randrange(2**32)
        text = SWEEP_CONFIG.format(
            d_range="100..110" if smoke else "100..300",
            samples=10**4 if smoke else 10**6,
            mc_seed=mc_seed,
            workers=WORKERS,
        )
        return dict(config=sweep.parse_config(text), out_dir=work_dir / "sweep",
                    ref="smoke" if smoke else "full")

    def parts(self, inp: dict, workers: int) -> List[Part]:
        def run(done):
            return sweep.run_sweep(replace(inp["config"], workers=workers), inp["out_dir"])

        return [("run_sweep", run)]

    def check(self, inp: dict, outs: dict, ref: dict) -> List[str]:
        result = outs["run_sweep"]
        want = ref[self.name][inp["ref"]]
        points = list(inp["config"].points())
        bad = [f"point {pt} failed: {err}" for pt, err in result.failures]
        if len(result.records) != len(points):
            bad.append(f"{len(result.records)} records for {len(points)} points")
        exact = {2: constants.GAMMA2_PIECEWISE, 3: constants.GAMMA3_PIECEWISE}
        for r in result.records:
            key = f"{r.k},{r.d},{r.c!r}"
            if rel_diff(r.variance, want[key]) > REL_TOL:
                bad.append(f"{key}: variance {r.variance!r} != reference {want[key]!r}")
            truth = float(exact[r.k].eval_exact(Fraction(repr(r.c))))
            if not abs(r.gamma_value - truth) <= MC_SIGMAS * r.gamma_error:
                bad.append(f"{key}: gamma {r.gamma_value!r} is more than {MC_SIGMAS} s.e. "
                           f"({r.gamma_error:.3e}) from {truth!r}")
        if len(sweep.read_records(result.jsonl_path)) != len(points):
            bad.append("results.jsonl does not hold one record per point")
        with open(result.csv_path, newline="") as f:
            if sum(1 for _ in csv.reader(f)) != len(points) + 1:
                bad.append("summary.csv does not hold a header and one row per point")
        return bad

    @staticmethod
    def pool_metrics(prefix: str, result, wall: float, workers: int) -> Dict[str, tuple]:
        busy = sum(r.wall_time_s for r in result.records)
        io = result.csv_path.stat().st_size + result.jsonl_path.stat().st_size
        return {
            f"{prefix}.sweep.points": (len(result.records) + len(result.failures), "count"),
            f"{prefix}.sweep.io_bytes": (io, "B"),
            f"{prefix}.sweep.pool_util": (busy / (workers * wall), "frac"),
            f"{prefix}.sweep.overhead_s": (wall - busy / workers, "s"),
        }

    def layer_metrics(self, inp: dict, lay: Layers) -> Dict[str, tuple]:
        p = self.name
        out = {
            f"{p}.arith.sieve_s": (lay.total("arith.tau_k_segment"), "s"),
            f"{p}.weights.eval_s": (lay.total("weights.values"), "s"),
            f"{p}.variance.class_sums_s": (lay.total("variance.compute_class_sums"), "s"),
            f"{p}.constants.gamma_mc_s": (lay.total("constants.gamma_k_mc"), "s"),
            f"{p}.constants.gamma_mc_calls": (lay.calls("constants.gamma_k_mc"), "count"),
            f"{p}.constants.gamma_mc_samples": (lay.attr_sum("constants.gamma_k_mc", "samples"), "count"),
            f"{p}.constants.gamma_mc_distinct_frac": (lay.distinct_frac("constants.gamma_k_mc"), "frac"),
            f"{p}.constants.a_k_d_s": (lay.total("constants.a_k_d"), "s"),
            f"{p}.constants.a_k_d_calls": (lay.calls("constants.a_k_d"), "count"),
            f"{p}.constants.a_k_d_distinct_frac": (lay.distinct_frac("constants.a_k_d"), "frac"),
        }
        out.update(_shares(p, lay, ("arith", "weights", "variance", "constants", "sweep")))
        return out


# --- far-tau ----------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def tau3_small(m: int) -> int:
    """tau_3(m) by trial division, for the small cofactors the checks need."""
    out, p = 1, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out *= (e + 1) * (e + 2) // 2
        p += 1
    return out * (3 if m > 1 else 1)


class FarTau:
    name = "far-tau"
    setup_code = "import tauvar.arith"
    bypassed = ()
    k = 3

    def inputs(self, seed: int, smoke: bool, work_dir: Path) -> dict:
        rng = random.Random(f"far-tau:{seed}")
        if smoke:
            bases, width, pbits, count = (10**9, 10**10), 1 << 12, 30, 4
        else:
            bases, width, pbits, count = (10**12, 10**14), 1 << 16, 40, 16
        los = [b + rng.randrange(10**9) for b in bases]
        batch = []
        # One prime per stratum of [2^pbits, 2^(pbits+4)), on a log scale, so
        # the trial-division cost of the batch barely depends on the seed.
        for i in range(count):
            lo_p = int(2 ** (pbits + 4 * i / count))
            hi_p = int(2 ** (pbits + 4 * (i + 1) / count))
            p = rng.randrange(lo_p, hi_p) | 1
            while not is_prime(p):
                p += 2
            # A small cofactor m < 2^12 keeps p the trial-division bound and keeps
            # m * p below 2^(pbits + 16), inside tau_k_of's 64-bit domain.
            batch.append((rng.randrange(1, 1 << 12), p))
        spots = [sorted(rng.sample(range(width), 4)) for _ in los]
        return dict(los=los, width=width, batch=batch, spots=spots)

    def parts(self, inp: dict, workers: int) -> List[Part]:
        def segment(done, lo):
            return arith.tau_k_segment(self.k, lo, lo + inp["width"])

        def tau(done, n):
            return arith.tau_k_of(self.k, n)

        out: List[Part] = [(f"tau_k_segment {lo}", functools.partial(segment, lo=lo)) for lo in inp["los"]]
        out += [(f"tau_k_of {m}*{p}", functools.partial(tau, n=m * p)) for m, p in inp["batch"]]
        return out

    def check(self, inp: dict, outs: dict, ref: dict) -> List[str]:
        bad = []
        for lo, spots in zip(inp["los"], inp["spots"]):
            seg = outs[f"tau_k_segment {lo}"]
            for i in spots:
                want = arith.tau_k_of(self.k, lo + i)
                if int(seg.values[i]) != want:
                    bad.append(f"tau_3({lo + i}) sieved {int(seg.values[i])}, tau_k_of {want}")
        for m, p in inp["batch"]:
            got, want = outs[f"tau_k_of {m}*{p}"], 3 * tau3_small(m)
            if got != want:
                bad.append(f"tau_3({m}*{p}) = {got}, expected {want}")
        return bad

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        """Whether two cycles' outputs agree exactly (repeats reuse one check)."""
        return a.keys() == b.keys() and all(
            bool((x.values == b[k].values).all()) if isinstance(x, arith.TauSegment) else x == b[k]
            for k, x in a.items()
        )

    def layer_metrics(self, inp: dict, lay: Layers) -> Dict[str, tuple]:
        p = self.name
        out = _sieve_metrics(p, lay)
        out.update({
            f"{p}.arith.factorize_s": (lay.total("arith.factorize"), "s"),
            f"{p}.arith.factorize_calls": (lay.calls("arith.factorize"), "count"),
        })
        out.update(_shares(p, lay, ("arith",)))
        return out


WORKLOADS = {w.name: w for w in (DeskProbe(), CharRoutes(), SweepMC(), FarTau())}
