"""Compare benchmark reports of a parent commit and a change.

Usage (from the repository root)::

    python perf/compare.py PARENT.json... -- CHANGE.json...

Each file is a report written by ``perf/run.py --out``.  Run the two
sides alternately, switching which goes first, so that the i-th parent
file and the i-th change file form a pair.  For every end-to-end metric
of ``BENCHMARK.json`` and every workload, the verdict is:

- ``improved``: at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
- ``unresolved``: either side's spread (interquartile range over median)
  exceeds the metric's bound, and not every change run beats every
  parent run;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``unchanged``: otherwise.

One row is printed per workload.  The exit code is 1 when any metric
regressed, 2 on a usage error.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from run import quartiles, spec


@dataclass(frozen=True)
class Verdict:
    """The comparison of one metric on one workload."""

    verdict: str
    #: relative change of the median, change over parent, minus one
    delta: float
    wins: int
    pairs: int


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> Verdict:
    """Apply the pairwise rule to two samples of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    base, new = quartiles(parent), quartiles(change)
    gain = sign * (base["median"] - new["median"])
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
        for s in (base, new)
    )
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > base["q3"] - base["q1"]:
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif -gain > bound * abs(base["median"]):
        verdict = "regressed"
    else:
        verdict = "unchanged"
    delta = new["median"] / base["median"] - 1.0 if base["median"] else 0.0
    return Verdict(verdict, delta, wins, len(pairs))


def load(paths: list[str]) -> dict[str, dict[str, list[float]]]:
    """Per workload and metric, each file's median, in file order."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for name, report in doc["workloads"].items():
            for metric, m in report["metrics"].items():
                out[name][metric].append(m["median"])
    return out


def main(argv: list[str]) -> int:
    """Command-line entry; returns the exit code."""
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    if not parent_paths or not change_paths:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(parent_paths), load(change_paths)
    metrics = spec()["end_to_end"]
    print("workload        " + "".join(f"{m['name']:34s}" for m in metrics))
    regressed = False
    for name in sorted(parent.keys() & change.keys()):
        cells = []
        for m in metrics:
            p, c = parent[name].get(m["name"]), change[name].get(m["name"])
            if not p or not c:
                cells.append(f"{'missing':34s}")
                continue
            v = judge(p, c, m["better"], m["bound"])
            regressed |= v.verdict == "regressed"
            cells.append(
                f"{v.verdict} {v.delta:+.1%} ({v.wins}/{v.pairs} won)".ljust(34)
            )
        print(f"{name:16s}" + "".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
