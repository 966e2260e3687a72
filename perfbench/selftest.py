"""Self-test of the benchmark itself, at tiny input sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that each metric ``BENCHMARK.json`` names
is emitted with its declared unit, in the untraced and the traced run;
that an output damaged on purpose is counted as a failed operation; and
that ``arch.modeled_cycles`` repeats exactly across two runs with one
seed.  It checks no timing against any threshold, and its file name
keeps test collectors from picking it up.
"""

from __future__ import annotations

import json
import sys

import run

SECONDS = 0.5
SEED = 3


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {}
    for key in ("end_to_end", "per_layer"):
        units[key] = {m["name"]: m["unit"] for m in spec[key]}
    return units


def check_workload(workload: str, units, problems: list) -> None:
    def fail(message: str) -> None:
        problems.append(f"{workload}: {message}")

    lines = {}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, _ = run.measure(workload, SEED, SECONDS, trace, size="tiny")
        lines[trace] = line
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        if got != units[key]:
            fail(f"{key} metrics/units differ from BENCHMARK.json: "
                 f"missing {sorted(set(units[key]) - set(got))}, "
                 f"extra {sorted(set(got) - set(units[key]))}, "
                 f"unit mismatches {sorted(n for n in got if n in units[key] and got[n] != units[key][n])}")
        if not (line["correct"] and line["failed"] == 0
                and line["attempted"] >= 1):
            fail(f"clean run not clean: {line}")

    broken, _ = run.measure(workload, SEED, SECONDS, False, size="tiny",
                         corrupt=True)
    if broken["correct"] or broken["failed"] < 1:
        fail(f"a damaged output was not counted as failed: {broken}")

    again, _ = run.measure(workload, SEED, SECONDS, True, size="tiny")
    first = lines[True]["metrics"]["arch.modeled_cycles"]["value"]
    second = again["metrics"]["arch.modeled_cycles"]["value"]
    if first != second:
        fail(f"arch.modeled_cycles differs across runs: {first} != {second}")


def main() -> int:
    if not run.import_program():
        print("selftest: no program under src/", file=sys.stderr)
        return 2
    units = declared()
    problems: list = []
    for workload in run.WORKLOAD_NAMES:
        check_workload(workload, units, problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
