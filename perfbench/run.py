"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones, and every
span is written to ``perfbench/out/<workload>-trace.json``.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("stream", "serve", "points", "cluster")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> bool:
    """Put this checkout's ``src/`` first on the import path, if present."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", corrupt: bool = False):
    """Run one workload; return the result line and a readable report."""
    import workloads
    from metrics import END_TO_END, PER_LAYER

    result = workloads.WORKLOADS[workload](
        seed, seconds, trace, size=size, corrupt=corrupt
    )
    if trace:
        result.tracer.dump(
            OUT_DIR / f"{workload}-trace.json",
            workload=workload, seed=seed, seconds=seconds,
        )
    values, units = (
        (result.per_layer, PER_LAYER) if trace
        else (result.end_to_end, END_TO_END)
    )
    report = [f"# {note}" for note in result.notes]
    report += [
        f"{name:30s} {values[name]:14.4f} {unit}"
        for name, unit in units.items()
    ]
    report.append(
        f"attempted {result.attempted}, failed {result.failed} "
        f"({result.wrong} wrong outputs)"
    )
    line = {
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return line, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    line, report = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print("\n".join(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
