"""The DES core's pinned baseline: ``BENCH_cluster.json``.

The fixed 5000-rank stealing scenario runs once, whatever
``REPRO_BENCH_SCALE`` says, and its deterministic outputs (makespan,
event count, task and message totals, imbalance) must equal the
committed ``pinned`` block exactly.  Nothing here is wall-clock, so
``make des-smoke`` is a blocking check.  After an intentional change to
the simulated timeline, rewrite the ``pinned`` block (and only it) with
``REPRO_BENCH_WRITE=1 pytest benchmarks/test_des_core.py`` and review
the diff like a golden trace.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.cluster.simulation import ClusterResult, ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import SubtreePartitionMap
from repro.experiments.stealing import skewed_workload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"

#: the pinned scenario — fixed regardless of REPRO_BENCH_SCALE
SCENARIO = {
    "ranks": 5000,
    "workload": "skewed_workload",
    "chunk_size": 4,
    "executor": "analytic",
}


def _run_stealing() -> ClusterResult:
    """One stealing run of the pinned scenario."""
    ranks = SCENARIO["ranks"]
    sim = ClusterSimulation(
        ranks,
        SubtreePartitionMap(ranks, anchor_level=2),
        mode="hybrid",
        stealing=StealingConfig(
            enabled=True,
            chunk_size=SCENARIO["chunk_size"],
            executor=SCENARIO["executor"],
        ),
    )
    return sim.run(skewed_workload(ranks).tasks)


def _deterministic_fields(result: ClusterResult) -> dict:
    """The outputs the ``pinned`` block holds (asserted exactly)."""
    return {
        "makespan_seconds": result.makespan_seconds,
        "n_events": result.total_events,
        "total_tasks": result.total_tasks,
        "total_messages": result.total_messages,
        "total_message_bytes": result.total_message_bytes,
        "imbalance": result.imbalance.imbalance,
    }


def test_des_baseline_is_pinned():
    """The 5000-rank stealing run reproduces ``BENCH_cluster.json``'s
    pinned block field for field."""
    bench = json.loads(BENCH_PATH.read_text())
    assert bench["scenario"] == SCENARIO
    got = _deterministic_fields(_run_stealing())
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        bench["pinned"] = got
        BENCH_PATH.write_text(json.dumps(bench, indent=2) + "\n")
        return
    assert got == bench["pinned"]
