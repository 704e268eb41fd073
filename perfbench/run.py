"""tauvar benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload desk-probe --seed 1 --seconds 25 --trace 0

--trace 0 cycles through the workload's parts in a closed loop, starting
cycles until --seconds have passed, and reports wall_s (the sum of each
part's median seconds), setup_s (median seconds from interpreter start until
tauvar is imported and the workload's one-time set-up is done, over fresh
interpreters) and peak_rss_mb.
--trace 1 replays every workload in-process at workers=1 with spans around
the public functions of tauvar and reports the per-layer metrics.
--smoke shrinks every input, for the self-tests; its numbers are not
comparable with full runs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The run exits non-zero, without that line,
when the tauvar sources are missing next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
SPAN_COST_N = 100_000
WORKLOAD_NAMES = ("desk-probe", "char-routes", "sweep-mc", "far-tau")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def provenance(args, workers: int) -> dict:
    import numpy
    import scipy
    from tauvar import arith

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tauvar": sys.modules["tauvar"].__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "workers": workers,
        "segment_size": arith.DEFAULT_SEGMENT_SIZE,
        "command": [Path(sys.executable).name, *sys.argv],
    }


def measure_setup(code: str):
    """Run `code` in a fresh interpreter; return the seconds from spawning it
    until `code` is done, and the `weight_s` that `code` sets (or None): the
    seconds of its first, uncached make_bump_weight() call."""
    script = (
        f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\nimport tauvar\nweight_s = None\n"
        f"{code}\nprint('ready', weight_s, flush=True)\n"
    )
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    words = line.split()
    if p.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up interpreter failed (exit {p.returncode})")
    return elapsed, None if words[1] == "None" else float(words[1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:5]:
                print(f"  check failed: {p}", file=sys.stderr)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def run_cycle(parts, times=None):
    """Run a workload's parts once, in order; return (outputs, problems).

    An exception is a problem, and it ends the cycle.  When `times` is given,
    each part's seconds are appended to times[label]."""
    done = {}
    for label, fn in parts:
        t0 = time.perf_counter()
        try:
            done[label] = fn(done)
        except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
            return None, [f"{label}: {traceback.format_exc(limit=3)}"]
        finally:
            if times is not None:
                times.setdefault(label, []).append(time.perf_counter() - t0)
    return done, []


class Checker:
    """Checks each cycle's outputs and counts the cycle in the tally.

    Outputs equal to ones that already passed (for workloads that define
    `same`) reuse that verdict instead of repeating a slow check."""

    def __init__(self, wl, inp, ref, tally: Tally):
        self.wl, self.inp, self.ref, self.tally = wl, inp, ref, tally
        self.passed = None

    def __call__(self, outs, problems) -> list:
        if not problems:
            same = getattr(self.wl, "same", None)
            if not (same and self.passed is not None and same(self.passed, outs)):
                problems = self.wl.check(self.inp, outs, self.ref)
                if not problems and self.passed is None:
                    self.passed = outs
        self.tally.record(problems)
        return problems


def end_to_end(wl, inp, ref, seconds: float, workers: int, tally: Tally):
    """Cycle through the parts for `seconds`; wall_s sums each part's median.

    A new cycle starts while less than `seconds` have passed, so the last
    cycle may end up to one cycle later."""
    setup = statistics.median(measure_setup(wl.setup_code)[0] for _ in range(SETUP_REPEATS))
    parts = wl.parts(inp, workers)
    times = {}
    check = Checker(wl, inp, ref, tally)
    start = time.perf_counter()
    while tally.attempted == 0 or time.perf_counter() - start < seconds:
        check(*run_cycle(parts, times))
    wall = sum(statistics.median(t) for t in times.values())
    rss = peak_rss_mb()
    print(
        f"{wl.name}: wall_s {wall:.4f} s (sum of the medians of {len(parts)} parts over "
        f"{tally.attempted} cycles); setup_s {setup:.4f} s (median of {SETUP_REPEATS} "
        f"interpreters); peak_rss_mb {rss:.1f} MB; "
        f"failed_frac {tally.failed}/{tally.attempted} = {tally.failed_frac:g}"
    )
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def timed_cycle(parts):
    t0 = time.perf_counter()
    outs, problems = run_cycle(parts)
    return outs, problems, time.perf_counter() - t0


def span_cost_us() -> float:
    """Microseconds one span adds: open and close on a throwaway recorder."""
    from spans import Recorder

    rec = Recorder()
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_N):
        rec.close(rec.open("x"))
    return (time.perf_counter() - t0) / SPAN_COST_N * 1e6


def bypass_problems(wl, lay) -> list:
    """A layer that the workload must bypass but that ran fails the check."""
    return [
        f"{name} ran {lay.calls(name)} times; {wl.name} must bypass it"
        for name in wl.bypassed if lay.calls(name)
    ]


def traced(workloads, seed: int, smoke: bool, work_dir: Path, ref, workers: int, tally: Tally, rec):
    """Replay every workload untraced and traced; return the per-layer metrics."""
    from spans import instrument
    from workloads import DeskProbe, Layers, SweepMC, targets

    metrics = {}
    cold = [measure_setup(DeskProbe.setup_code)[1] for _ in range(SETUP_REPEATS)]
    metrics["weights.setup_s"] = (statistics.median(cold), "s")
    metrics["trace.span_cost_us"] = (span_cost_us(), "us")
    for wl in workloads:
        inp = wl.inputs(seed, smoke, work_dir)
        p = wl.name
        check = Checker(wl, inp, ref, tally)
        if isinstance(wl, SweepMC):
            outs, problems, wall = timed_cycle(wl.parts(inp, workers))
            if not check(outs, problems):
                metrics.update(wl.pool_metrics(p, outs["run_sweep"], wall, workers))
        replay = wl.parts(inp, 1)
        outs, problems, plain = timed_cycle(replay)
        check(outs, problems)
        with rec.run(p), instrument(rec, targets()):
            outs, problems, wall = timed_cycle(replay)
        lay = Layers(rec.of_run(p), wall)
        problems = problems or bypass_problems(wl, lay)
        if check(outs, problems):
            continue
        metrics.update(wl.layer_metrics(inp, lay))
        metrics[f"{p}.trace.replay_s"] = (wall, "s")
        metrics[f"{p}.trace.overhead_frac"] = ((wall - plain) / plain, "frac")
        print(f"{p}: replay at workers=1 took {plain:.3f} s untraced, {wall:.3f} s traced, "
              f"{len(lay.spans)} spans")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced inputs, for the self-tests")
    args = ap.parse_args(argv)

    if not (SRC / "tauvar" / "__init__.py").is_file():
        fail(f"no tauvar sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tauvar

    if Path(tauvar.__file__).resolve().parent != (SRC / "tauvar").resolve():
        fail(f"imported tauvar from {tauvar.__file__}, not from {SRC}")
    from spans import Recorder
    from workloads import WORKERS, WORKLOADS, load_reference

    prov = provenance(args, WORKERS)
    ref = load_reference()
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace == 0:
            wl = WORKLOADS[args.workload]
            inp = wl.inputs(args.seed, args.smoke, work_dir)
            metrics = end_to_end(wl, inp, ref, args.seconds, WORKERS, tally)
        else:
            rec = Recorder()
            print("traced run: every workload is replayed in-process at workers=1, in a fixed "
                  "order; pool-backed layers (desk-probe, sweep-mc) are measured in that replay")
            metrics = traced(WORKLOADS.values(), args.seed, args.smoke, work_dir, ref, WORKERS, tally, rec)
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            rec.write_jsonl(trace_path, {"provenance": prov})
            print(f"spans written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
