"""Command-line surface: tau, constants, gamma, variance, sweep, verify, plot.

Every subcommand prints JSON (or CSV-backed files for sweeps) and exits 0
exactly when all requested work succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, replace
from typing import List, Optional

from ._version import __version__
from .arith import tau_k_of, tau_k_segments
from .constants import GAMMA_METHODS, a_k_d, a_k_value, g_k, gamma_eval
from .plotting import emit_plot
from .sweep import load_config, record_line, run_sweep
from .variance import CUTOFFS, experiment
from .verify import SUITE_NAMES, run_verify

__all__ = ["main", "build_parser"]

_TAU_CHUNK = 1 << 16


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauvar",
        description="variance of the k-fold divisor function in arithmetic progressions",
    )
    parser.add_argument("--version", action="version", version=f"tauvar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="tau_k values pointwise or over a range")
    p_tau.add_argument("--k", type=int, required=True)
    p_tau.add_argument("lo", type=int, help="first n (or the only n when hi is omitted)")
    p_tau.add_argument("hi", type=int, nargs="?", help="end of the half-open range [lo, hi)")
    p_tau.add_argument("--out", type=str, default=None, help="write 'n,tau' lines to a file")

    p_const = sub.add_parser("constants", help="a_k, a_k(d) and g_k")
    p_const.add_argument("--k", type=int, required=True)
    p_const.add_argument("--d", type=int, default=None)

    p_gamma = sub.add_parser("gamma", help="gamma_k(c) by the chosen method")
    p_gamma.add_argument("--k", type=int, required=True)
    p_gamma.add_argument("--c", type=float, required=True)
    p_gamma.add_argument("--gamma-method", choices=GAMMA_METHODS, default="simple")
    p_gamma.add_argument("--samples", type=int, default=10**6)
    p_gamma.add_argument("--seed", type=int, default=1)

    p_var = sub.add_parser("variance", help="one variance experiment at X = d^c")
    p_var.add_argument("--k", type=int, required=True)
    p_var.add_argument("--d", type=int, required=True)
    p_var.add_argument("--c", type=float, required=True)
    p_var.add_argument("--cutoff", choices=CUTOFFS, default="smooth")
    p_var.add_argument("--gamma-method", choices=GAMMA_METHODS, default="simple")
    p_var.add_argument("--samples", type=int, default=10**6)
    p_var.add_argument("--seed", type=int, default=1)
    p_var.add_argument("--workers", type=int, default=1)
    p_var.add_argument("--out", type=str, default=None, help="append the JSON record to a file")

    p_sweep = sub.add_parser("sweep", help="run a (k, d, c) grid from a config file")
    p_sweep.add_argument("--config", type=str, required=True)
    p_sweep.add_argument("--out", type=str, default=None, help="output directory (overrides config)")
    p_sweep.add_argument("--workers", type=int, default=None, help="override the config worker count")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", type=str, help=f"one of: {', '.join(SUITE_NAMES)}, all")
    p_verify.add_argument("--json", action="store_true", help="print the full JSON report")

    p_plot = sub.add_parser("plot", help="emit a self-contained SVG")
    p_plot.add_argument("target", choices=("gamma3", "ratio-csv"))
    p_plot.add_argument("--out", type=str, required=True)
    p_plot.add_argument("--csv", type=str, default=None, help="sweep summary CSV (ratio-csv)")

    return parser


def _cmd_tau(args) -> int:
    if args.hi is None:
        print(json.dumps({"k": args.k, "n": args.lo, "tau": tau_k_of(args.k, args.lo)}))
        return 0
    # a bad range raises here, before --out is created
    segments = tau_k_segments(args.k, args.lo, args.hi)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        for seg in segments:
            # text takes about 110 bytes per entry, so format a window in chunks
            for i in range(0, seg.values.size, _TAU_CHUNK):
                vals = seg.values[i : i + _TAU_CHUNK].tolist()
                out.write("".join(f"{n},{v}\n" for n, v in enumerate(vals, seg.lo + i)))
    return 0


def _cmd_constants(args) -> int:
    ak = a_k_value(args.k)
    out = {
        "k": args.k,
        "a_k": ak.value,
        "a_k_error": ak.error_estimate,
        "prime_bound": ak.params["prime_bound"],
        "g_k": str(g_k(args.k)) if args.k <= 10 else None,
    }
    if args.d is not None:
        akd = a_k_d(args.k, args.d)
        out["d"] = args.d
        out["a_k_d"] = akd.value
        out["a_k_d_error"] = akd.error_estimate
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_gamma(args) -> int:
    val = gamma_eval(args.k, args.c, args.gamma_method, mc_samples=args.samples, mc_seed=args.seed)
    print(json.dumps({"k": args.k, "c": args.c, **asdict(val)}, sort_keys=True))
    return 0


def _cmd_variance(args) -> int:
    report = experiment(
        args.k,
        args.d,
        args.c,
        cutoff=args.cutoff,
        gamma_method=args.gamma_method,
        mc_samples=args.samples,
        mc_seed=args.seed,
        workers=args.workers,
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    if args.out:
        with open(args.out, "a") as f:
            f.write(record_line(report))
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.workers is not None:
        config = replace(config, workers=args.workers)
    result = run_sweep(config, out_dir=args.out)
    print(
        json.dumps(
            {
                "points": len(list(config.points())),
                "completed": len(result.records),
                "failed": len(result.failures),
                "csv": str(result.csv_path),
                "records": str(result.jsonl_path),
            },
            sort_keys=True,
        )
    )
    return 0 if result.ok else 1


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_ok = True
    for name in names:
        rep = run_verify(name)
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f"  ({check.detail})" if check.detail else ""
            print(
                f"[{status}] {rep.suite}/{check.name}: residual={check.residual:.3e} "
                f"tol={check.tol:.3e}{detail}"
            )
        if args.json:
            print(json.dumps(rep.to_dict(), sort_keys=True))
        summary = "pass" if rep.passed else "FAIL"
        print(f"suite {rep.suite}: {summary} ({rep.elapsed_s:.1f}s)")
        all_ok = all_ok and rep.passed
    return 0 if all_ok else 1


def _cmd_plot(args) -> int:
    path = emit_plot(args.target, args.out, csv_path=args.csv)
    print(json.dumps({"target": args.target, "out": str(path)}))
    return 0


_COMMANDS = {
    "tau": _cmd_tau,
    "constants": _cmd_constants,
    "gamma": _cmd_gamma,
    "variance": _cmd_variance,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
