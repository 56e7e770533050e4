"""Same work: the traced counts of two benchmark reports must agree.

Run it from the repository root::

    python tools/same_work.py PARENT.json CHANGE.json

Each file is a report ``perf/run.py --seed 0 --trace 1 --out FILE``
wrote.  At seed 0 every repeat runs the canonical instance, so a traced
metric whose unit is ``count`` or ``flop`` (calls per layer, batches,
DES events, kernel FLOPs) is a number, not a sample: a change that
claims to do its parent's work keeps each of them.  Timings are noise
and are not compared.

It prints every such metric that differs, or is missing on one side,
with both values, one line per workload and metric, and ends with
"same work" when none does.  The exit status is 1 when a metric
differs, 2 on a usage error.  ``make same-work PARENT=<checkout>``
writes both reports and runs this.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: units of the metrics that must not move
EXACT_UNITS = ("count", "flop")


def exact_metrics(report: dict) -> dict[tuple[str, str], float]:
    """(workload, metric) -> median of every count or flop metric."""
    return {
        (workload, name): metric["median"]
        for workload, entry in report["workloads"].items()
        for name, metric in entry["metrics"].items()
        if metric["unit"] in EXACT_UNITS
    }


def _shown(value: float | None) -> str:
    return "missing" if value is None else f"{value:.15g}"


def differences(parent: dict, change: dict) -> list[str]:
    """One line per count or flop metric the two reports disagree on."""
    before, after = exact_metrics(parent), exact_metrics(change)
    lines = []
    for key in sorted(before.keys() | after.keys()):
        if before.get(key) != after.get(key):
            workload, name = key
            lines.append(f"{workload} {name}: {_shown(before.get(key))} -> "
                         f"{_shown(after.get(key))}")
    return lines


def main(argv: list[str]) -> int:
    """Command-line entry; returns the exit status."""
    if len(argv) != 2:
        print("usage: python tools/same_work.py PARENT.json CHANGE.json",
              file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    lines = differences(parent, change)
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} count or flop metric(s) differ")
        return 1
    print("same work")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
