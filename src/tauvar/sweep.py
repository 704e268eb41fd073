"""Experiment sweeps: flat-text configuration, JSONL records, CSV summaries.

A sweep measures every point of the product k_list x d_list x c_list and
persists one line-delimited JSON record per point next to a CSV summary.
Rows are written in input order as points finish, so a crashed run leaves a
usable prefix, and re-running an identical configuration reproduces the CSV
byte for byte apart from the runtime column, regardless of worker count.

The main term's constants do not depend on d: gamma_k(c) depends on (k, c)
only and a_k on k only.  Each sweep evaluates them once per distinct key of
its points, as futures, and builds every point's report from the shared
values with the same builder as experiment(), so each record equals
experiment() at that point in every field but wall_time_s.  Constants and
points take one path whatever the worker count: a single `submit` that is
the process pool's when workers > 1, and otherwise runs the call in process
and returns a finished future.  A record's runtime_s (wall_time_s) is that
point's own time, without the shared constants.  Nothing is kept between
sweeps: a second run_sweep evaluates the constants again.

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
import json
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
        _check_point(min(self.d_list, default=1), self.cutoff, self.workers)
        _check_gamma_method(self.gamma_method)
        for k in self.k_list:
            for c in self.c_list:
                check_gamma_domain(k, c, self.gamma_method, self.samples, self.seed)

    def points(self) -> Iterator[Tuple[int, int, float]]:
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
    failures: List[Tuple[Tuple[int, int, float], str]] = field(default_factory=list)
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


def _run_point(
    point: Tuple[int, int, float], config: SweepConfig, ak: ConstantValue, gamma: ConstantValue
) -> VarianceReport:
    start = time.perf_counter()
    k, d, c = point
    x = _point_x(d, c, config.cutoff, 1)  # before factorize(d), as experiment() checks
    akd = _drop_local_factors(ak, k, d)
    return _report(k, d, c, x, config.cutoff, config.gamma_method, akd, gamma, 1, start)


def run_sweep(config: SweepConfig, out_dir: str | Path | None = None) -> SweepResult:
    """Run every (k, d, c) point, flushing records and CSV rows incrementally.

    Per-point failures are reported on stderr and recorded; remaining points
    still run.  A constant that fails fails every point that needs it.
    Constants and points go through one `submit`: a process pool's when
    workers > 1, otherwise one that runs the call in this process.  Either
    way each constant is one future, submitted before the first point, and
    results are written in input order.  In process, a point
    runs only after the previous row is flushed.
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

        def queue(point: Tuple[int, int, float]) -> Future:
            k, _, c = point
            try:
                ak, gamma = constants[("a_k", k)].result(), constants[("gamma", k, c)].result()
                return submit(_run_point, point, config, ak, gamma)
            except Exception as exc:  # noqa: BLE001 - a failed constant or a broken pool
                failed: Future = Future()
                failed.set_exception(exc)
                return failed

        # The pool gets every point up front; in process they run one by one.
        queued = list(map(queue, points)) if parallel else map(queue, points)
        for point, fut in zip(points, queued):
            try:
                report = fut.result()
            except Exception as exc:  # noqa: BLE001 - per-point isolation
                err = f"{type(exc).__name__}: {exc}"
                print(f"sweep point {point} failed: {err}", file=sys.stderr)
                result.failures.append((point, err))
                continue
            result.records.append(report)
            writer.writerow(_csv_row(report))
            csv_f.flush()
            jsonl_f.write(record_line(report))
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
