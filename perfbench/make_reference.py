"""Write reference.json: the outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter these outputs, and say so in the
change.  It records, for full and smoke inputs: every desk-probe report field
except wall_time_s and segment_size, the direct-route variance of each char-routes modulus,
and the variance of each sweep-mc point (which does not depend on the Monte
Carlo seed).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import REFERENCE_PATH, WORKERS, WORKLOADS  # noqa: E402


def outputs(name: str, smoke: bool, work_dir: Path) -> dict:
    """One cycle of a workload's parts, at its own worker count."""
    wl = WORKLOADS[name]
    done: dict = {}
    for label, fn in wl.parts(wl.inputs(1, smoke, work_dir), WORKERS):
        done[label] = fn(done)
    return done


def main() -> None:
    ref = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for size in ("full", "smoke"):
            smoke = size == "smoke"
            report = outputs("desk-probe", smoke, Path(tmp))["experiment"].to_dict()
            del report["wall_time_s"], report["segment_size"]
            ref.setdefault("desk-probe", {})[size] = report

            char = outputs("char-routes", smoke, Path(tmp))
            ref.setdefault("char-routes", {})[size] = {
                label.split()[1]: v for label, v in char.items() if label.startswith("direct ")
            }

            result = outputs("sweep-mc", smoke, Path(tmp))["run_sweep"]
            if result.failures:
                raise SystemExit(f"sweep points failed: {result.failures}")
            ref.setdefault("sweep-mc", {})[size] = {
                f"{r.k},{r.d},{r.c!r}": r.variance for r in result.records
            }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
