"""Experiment sweeps: flat-text configuration, JSONL records, CSV summaries.

A sweep measures every point of the product k_list x d_list x c_list and
persists one line-delimited JSON record per point next to a CSV summary.
Rows are written in input order as their batch finishes, so a crashed run
leaves a usable prefix, and re-running an identical configuration reproduces
the CSV byte for byte apart from the runtime column, regardless of worker
count.

The main term's constants do not depend on d: gamma_k(c) depends on (k, c)
only and a_k on k only.  Each sweep evaluates them once per distinct key of
its points, as futures, and builds every point's report from the shared
values with the same builder as experiment(), so each record equals
experiment() at that point in every field but wall_time_s.  Constants take
one path whatever the worker count: a single `submit` that is the process
pool's when workers > 1, and otherwise runs the call in process and returns
a finished future.  Points take the pool's `map`, or the built-in one in
process, over batches: contiguous runs of about one unit of estimated work,
the lesser of _BATCH_COST_X and a 1/_BATCHES_PER_WORKER share of a worker's
part.  A sweep of cheap points thus makes a few pool round trips rather than
one per point, while dear points keep one task each, so the workers still
share the work evenly.  In process each batch is one point.  A point whose constant failed
carries that failure in its batch and fails alone.  A record's runtime_s
(wall_time_s) is that point's own time, without the shared constants.  Each
sweep evaluates its constants again; only the bump weight, built once per
process, outlives a sweep.

Configuration files are flat "key = value" text (diff-friendly provenance):

    k = 2,3                  # list of k values
    d = 4,12,35              # fixed moduli, or  d = primes:100..200
    c = 2.5                  # list of exponents, X = d^c
    cutoff = smooth          # sharp | smooth
    gamma_method = simple    # simple | piecewise | mc
    samples = 1000000        # Monte-Carlo sample count (gamma_method = mc)
    seed = 1                 # Monte-Carlo seed
    workers = 1              # worker processes
    out = runs/sweep1        # output directory
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .arith import primes_upto
from .constants import (
    ConstantValue, _check_gamma_method, _drop_local_factors, a_k_value, check_gamma_domain,
    gamma_eval,
)
from .variance import VarianceReport, _check_point, _point_x, _report

__all__ = [
    "SCHEMA_VERSION",
    "CSV_COLUMNS",
    "SweepConfig",
    "SweepResult",
    "parse_config",
    "load_config",
    "run_sweep",
    "record_line",
    "read_records",
]

SCHEMA_VERSION = 1

# Pool tasks per worker in a parallel sweep: enough that a worker left with
# slow points does not hold up the rest, few enough that each round trip is
# spread over many points.
_BATCHES_PER_WORKER = 4

# Costs are in class-sum entries (sieve, weight and accumulation), about
# 4.5e7/s on one core, not variance._SIEVE_RATE's raw sieve rate.  A point's
# fixed cost (its report, a_k's local factors, the pool hop): about 0.7 ms.
_POINT_COST_X = 2**15

# The most work worth one batch: about 0.1 s, beside which a pool round trip
# (under 1 ms) is lost.  Dearer batches save nothing and only coarsen how the
# workers share the work.
_BATCH_COST_X = 2**22

Point = Tuple[int, int, float]
# a point with its a_k and gamma, or the text of its constant's failure
Job = Union[Tuple[Point, ConstantValue, ConstantValue], str]
# a point's report, or the text of its failure
Outcome = Union[VarianceReport, str]

CSV_COLUMNS = (
    "k",
    "d",
    "c",
    "X",
    "cutoff",
    "variance",
    "main_term",
    "ratio",
    "gamma_method",
    "runtime_s",
)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the grid, the evaluator choices, and output placement."""

    k_list: Tuple[int, ...]
    d_list: Tuple[int, ...]
    c_list: Tuple[float, ...]
    cutoff: str = "smooth"
    gamma_method: str = "simple"
    samples: int = 10**6
    seed: int = 1
    workers: int = 1
    out: Optional[str] = None

    def __post_init__(self) -> None:
        for d in self.d_list or (1,):
            _check_point(d, self.cutoff, self.workers)
        _check_gamma_method(self.gamma_method)
        for k in self.k_list:
            for c in self.c_list:
                check_gamma_domain(k, c, self.gamma_method, self.samples, self.seed)

    def points(self) -> Iterator[Point]:
        for k in self.k_list:
            for d in self.d_list:
                for c in self.c_list:
                    yield k, d, c


def _parse_d_spec(spec: str) -> Tuple[int, ...]:
    spec = spec.strip()
    if spec.startswith("primes:"):
        lo_s, sep, hi_s = spec[len("primes:") :].partition("..")
        lo, hi = (int(lo_s), int(hi_s)) if sep else (0, 0)
        if not (2 <= lo <= hi):
            raise ValueError(f"bad prime range {spec!r}")
        ps = primes_upto(hi)
        return tuple(int(p) for p in ps[ps >= lo])
    return _list_of(int)(spec)


def _list_of(kind: Callable[[str], object]) -> Callable[[str], tuple]:
    """A parser of comma-separated values of one kind; empty tokens are skipped."""
    return lambda value: tuple(kind(tok) for tok in value.split(",") if tok.strip())


# config key -> (SweepConfig field, parser of its value)
_KEYS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "k": ("k_list", _list_of(int)),
    "d": ("d_list", _parse_d_spec),
    "c": ("c_list", _list_of(float)),
    **{key: (key, int) for key in ("samples", "seed", "workers")},
    **{key: (key, str) for key in ("cutoff", "gamma_method", "out")},
}


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key = value format; unknown and repeated keys, and
    values that do not parse, are rejected with their line number."""
    kwargs: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        field_name, parse = _KEYS[key]
        if field_name in kwargs:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        try:
            kwargs[field_name] = parse(value.strip())
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}") from None
    for key in ("k", "d", "c"):
        if _KEYS[key][0] not in kwargs:
            raise ValueError(f"config is missing the {key!r} key")
    return SweepConfig(**kwargs)  # type: ignore[arg-type]


def load_config(path: str | Path) -> SweepConfig:
    return parse_config(Path(path).read_text())


@dataclass
class SweepResult:
    config: SweepConfig
    records: List[VarianceReport] = field(default_factory=list)
    failures: List[Tuple[Point, str]] = field(default_factory=list)
    csv_path: Optional[Path] = None
    jsonl_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.failures


def _csv_row(report: VarianceReport) -> List[str]:
    return [
        str(report.k),
        str(report.d),
        repr(report.c),
        repr(report.x),
        report.cutoff,
        repr(report.variance),
        repr(report.main_term),
        "" if report.ratio is None else repr(report.ratio),
        report.gamma_method,
        repr(report.wall_time_s),
    ]


def _run_in_process(fn: Callable, *args, **kwargs) -> Future:
    """Run fn here and now; a finished future holds its value or its exception."""
    done: Future = Future()
    try:
        done.set_result(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - per-point isolation
        done.set_exception(exc)
    return done


def _failure(exc: Exception) -> str:
    """A failed point's "Type: message" text, as stderr and SweepResult give it."""
    return f"{type(exc).__name__}: {exc}"


def _run_point(
    point: Point, ak: ConstantValue, gamma: ConstantValue, config: SweepConfig
) -> VarianceReport:
    start = time.perf_counter()
    k, d, c = point
    x = _point_x(d, c, config.cutoff, 1)  # before factorize(d), as experiment() checks
    akd = _drop_local_factors(ak, k, d)
    return _report(k, d, c, x, config.cutoff, config.gamma_method, akd, gamma, 1, start)


def _run_batch(jobs: List[Job], config: SweepConfig) -> List[Outcome]:
    """Each job's outcome, in order; a job that is already a failure's text
    stays one.  Top-level so worker pools can pickle it."""
    outcomes: List[Outcome] = []
    for job in jobs:
        if isinstance(job, str):
            outcomes.append(job)
            continue
        try:
            outcomes.append(_run_point(*job, config))
        except Exception as exc:  # noqa: BLE001 - per-point isolation
            outcomes.append(_failure(exc))
    return outcomes


def _point_cost(point: Point, cutoff: str) -> float:
    """A point's estimated work in class-sum entries: X plus its fixed cost.  A
    point that fails its checks costs only the fixed part."""
    _, d, c = point
    try:
        return _point_x(d, c, cutoff, 1) + _POINT_COST_X
    except Exception:  # noqa: BLE001 - it fails again, alone, when it runs
        return _POINT_COST_X


def _batches(points: List[Point], config: SweepConfig, workers: int) -> List[List[Point]]:
    """Contiguous runs of points: one point each in process; in a pool, runs
    of about one unit of cost each, the unit being the lesser of
    _BATCH_COST_X and a 1/_BATCHES_PER_WORKER share of each worker's part.
    A point goes to the unit that holds the middle of its own cost, so one
    that costs two units or more is a batch of its own."""
    if workers == 1:
        return [[point] for point in points]
    costs = [_point_cost(point, config.cutoff) for point in points]
    unit = min(sum(costs) / (_BATCHES_PER_WORKER * workers), _BATCH_COST_X)
    batches: Dict[int, List[Point]] = {}
    before = 0.0
    for point, cost in zip(points, costs):
        batches.setdefault(int((before + cost / 2) / unit), []).append(point)
        before += cost
    return list(batches.values())


def run_sweep(config: SweepConfig, out_dir: str | Path | None = None) -> SweepResult:
    """Run every (k, d, c) point, flushing records and CSV rows incrementally.

    Per-point failures are reported on stderr and recorded; remaining points
    still run.  A constant that fails fails every point that needs it, and
    only those.  Constants go through one `submit`: a process pool's when
    workers > 1, otherwise one that runs the call in this process.  Batches
    of points then go through the pool's `map`, one task per batch, each
    submitted once its points' constants are in; in process the built-in
    `map` runs one point per batch, only after the previous row is flushed.
    Rows are written in input order as their batch finishes.
    """
    out = Path(out_dir) if out_dir is not None else (Path(config.out) if config.out else None)
    if out is None:
        raise ValueError("sweep needs an output directory (config key 'out' or argument)")
    out.mkdir(parents=True, exist_ok=True)

    result = SweepResult(config=config)
    result.csv_path = out / "summary.csv"
    result.jsonl_path = out / "results.jsonl"
    points = list(config.points())
    parallel = config.workers > 1 and len(points) > 1
    batches = _batches(points, config, config.workers if parallel else 1)

    # Opening the outputs before any work fails fast on an unwritable directory.
    with open(result.csv_path, "w", newline="") as csv_f, open(
        result.jsonl_path, "w"
    ) as jsonl_f, (
        ProcessPoolExecutor(max_workers=config.workers) if parallel else nullcontext()
    ) as pool:
        writer = csv.writer(csv_f)
        writer.writerow(CSV_COLUMNS)
        csv_f.flush()
        submit = pool.submit if parallel else _run_in_process

        # Keyed from the points, so an empty sweep evaluates nothing, and
        # submitted in point order, a_k(k) ahead of its gamma(k, c) values.
        constants: Dict[tuple, Future] = {}
        for k, _, c in points:
            if ("a_k", k) not in constants:
                constants[("a_k", k)] = submit(a_k_value, k)
            if ("gamma", k, c) not in constants:
                constants[("gamma", k, c)] = submit(
                    gamma_eval, k, c, config.gamma_method,
                    mc_samples=config.samples, mc_seed=config.seed,
                )

        def jobs(batch: List[Point]) -> List[Job]:
            ready: List[Job] = []
            for point in batch:
                k, _, c = point
                try:
                    ak, gamma = constants[("a_k", k)].result(), constants[("gamma", k, c)].result()
                except Exception as exc:  # noqa: BLE001 - a failed constant
                    ready.append(_failure(exc))
                else:
                    ready.append((point, ak, gamma))
            return ready

        def outcomes() -> Iterator[Outcome]:
            """Every point's outcome in input order; a broken pool fails
            every point it has not yet returned."""
            done = 0
            try:
                run = pool.map if parallel else map
                for batch in run(_run_batch, map(jobs, batches), itertools.repeat(config)):
                    for outcome in batch:
                        done += 1
                        yield outcome
            except Exception as exc:  # noqa: BLE001 - a broken pool
                yield from itertools.repeat(_failure(exc), len(points) - done)

        for point, outcome in zip(points, outcomes(), strict=True):
            if isinstance(outcome, str):
                print(f"sweep point {point} failed: {outcome}", file=sys.stderr)
                result.failures.append((point, outcome))
                continue
            result.records.append(outcome)
            writer.writerow(_csv_row(outcome))
            csv_f.flush()
            jsonl_f.write(record_line(outcome))
            jsonl_f.flush()

    return result


def record_line(report: VarianceReport) -> str:
    """One JSONL record, as a sweep and `tauvar variance --out` write it."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    record = {"schema_version": SCHEMA_VERSION, "timestamp": stamp, "report": report.to_dict()}
    return json.dumps(record, sort_keys=True) + "\n"


def read_records(jsonl_path: str | Path) -> List[Dict[str, object]]:
    """Load persisted records; schema version is checked."""
    out: List[Dict[str, object]] = []
    for line in Path(jsonl_path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported record schema {rec.get('schema_version')!r}")
        out.append(rec)
    return out
