"""GC audit: the garbage collections the interpreter starts on its own
while the benchmark's workloads run.

For each ``perf/workloads.py`` workload this repeats what one
``perf/run.py`` repeat does, without the timing: an explicit
``gc.collect()``, then ``build(0)`` and ``run(inputs)``, then the
untimed ``outputs`` and ``invariants`` ("check").  A ``gc.callbacks``
hook records every collection with its generation, the phase it fell
in and its seconds; the explicit collections are left out.  It prints,
per workload and phase, the automatic collections of each generation
and the seconds they took.

A full (generation-2) collection walks every tracked object, so one
inside ``build`` or ``run`` lands in ``setup_s`` or ``run_s``.  CPython
starts one once ten generation-1 collections have run and the objects
promoted since the last full collection exceed a quarter of those it
left; ``perf/run.py``'s explicit collection resets that count at the
start of every repeat.  Each workload runs six repeats of the canonical
(seed-0) instance.

Run it from the repository root::

    python tools/gc_audit.py [--workload W ...]

It exits with status 3 when an automatic full collection fell inside
``build`` or ``run``, and 1 when a workload failed.  As ``perf/run.py``
does, each workload runs in a fresh interpreter of its own, so what one
workload leaves alive does not move another's trigger; ``--workload``
runs only the ones named.
"""

from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("build", "run", "check")
GENERATIONS = (0, 1, 2)
#: repeats per workload, each of the canonical instance (seed 0)
REPEATS = 6
#: exit status of a run with an automatic full collection in a timed phase
FULL_COLLECTION = 3


class CollectionLog:
    """A ``gc.callbacks`` hook: the (phase, generation) and seconds of
    every collection that starts while :attr:`phase` is set and
    :attr:`explicit` is not."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.explicit = False
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.seconds: dict[tuple[str, int], float] = defaultdict(float)
        self._started = 0.0

    def __call__(self, stage: str, info: dict) -> None:
        if self.phase is None or self.explicit:
            return
        if stage == "start":
            self._started = time.perf_counter()
            return
        key = (self.phase, info["generation"])
        self.counts[key] += 1
        self.seconds[key] += time.perf_counter() - self._started

    def collect(self) -> None:
        """``gc.collect()``, as ``perf/run.py`` calls it, unrecorded."""
        self.explicit = True
        try:
            gc.collect()
        finally:
            self.explicit = False


def audit(workload) -> CollectionLog:
    """Repeat ``workload`` :data:`REPEATS` times under a fresh log."""
    log = CollectionLog()
    gc.callbacks.append(log)
    try:
        for _ in range(REPEATS):
            log.collect()
            log.phase = "build"
            inputs = workload.build(0)
            log.phase = "run"
            result = workload.run(inputs)
            log.phase = "check"
            workload.outputs(result)
            workload.invariants(inputs, result)
            log.phase = None
            del inputs, result
    finally:
        log.phase = None
        gc.callbacks.remove(log)
    return log


def report(name: str, log: CollectionLog) -> list[str]:
    """The workload's table: one row per phase, one column per
    generation, each ``count (seconds)``."""
    lines = [f"{name}: {REPEATS} repeats"]
    lines.append("  phase  " + "".join(f"{'gen ' + str(g):>18}" for g in GENERATIONS))
    for phase in PHASES:
        cells = "".join(
            f"{log.counts[phase, g]:>7} ({log.seconds[phase, g]:.4f} s)"
            for g in GENERATIONS
        )
        lines.append(f"  {phase:<6} {cells}")
    return lines


def main(argv: list[str] | None = None) -> int:
    """Audit the workloads ``argv`` names; returns the exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="a perf workload (repeatable; default: all)")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if len(names) > 1:
        print(f"gc thresholds {gc.get_threshold()}", flush=True)
        status = {
            name: subprocess.run(
                [sys.executable, __file__, "--workload", name], check=False,
            ).returncode
            for name in names
        }
        full = [name for name, code in status.items() if code == FULL_COLLECTION]
        failed = [name for name, code in status.items()
                  if code not in (0, FULL_COLLECTION)]
        if failed:
            print("failed: " + ", ".join(failed))
        if full:
            print("automatic full collections in build or run: " + ", ".join(full))
        elif not failed:
            print("no automatic full collection in build or run")
        return 1 if failed else FULL_COLLECTION if full else 0
    name = names[0]
    log = audit(WORKLOADS[name])
    print("\n".join(report(name, log)), flush=True)
    timed = any(log.counts[phase, 2] for phase in ("build", "run"))
    return FULL_COLLECTION if timed else 0


if __name__ == "__main__":
    sys.exit(main())
