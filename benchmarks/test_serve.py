"""The serving layer: ablation claims plus the recorded baseline.

Two jobs:

- assert the serve-ablation headline at the harness scale — shedding +
  autoscaling beats the naive admit-all FIFO front door on both p99
  latency and goodput (the claim must hold down to
  ``REPRO_BENCH_SCALE=0.1``, the CI smoke setting);
- maintain ``BENCH_serve.json`` at the repo root: one fixed seeded
  scenario (independent of ``REPRO_BENCH_SCALE``) whose deterministic
  outputs (p99, goodput, job/batch/event counts) are pinned exactly.
  It records no host time: ``perf/`` measures that.  Regenerate with
  ``REPRO_BENCH_WRITE=1 pytest benchmarks/test_serve.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.serve import bursty_trace, run_serve_ablation
from repro.serve.admission import AdmissionConfig
from repro.serve.arrivals import BurstyArrivals
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.jobs import SloClass
from repro.serve.service import ServeConfig

from benchmarks.conftest import bench_scale

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: the pinned scenario — fixed regardless of REPRO_BENCH_SCALE
BASELINE_TRACE = dict(
    rate=30.0,
    burst_rate=150.0,
    period=2.0,
    burst_fraction=0.3,
    horizon=2.0,
    n_tenants=4,
    seed=17,
)


def baseline_config() -> ServeConfig:
    """The full serving stack: shedding + autoscaling + batching."""
    return ServeConfig(
        classes=(
            SloClass("interactive", 0, 0.05),
            SloClass("standard", 1, 0.5),
            SloClass("batch", 2, 2.0),
        ),
        admission=AdmissionConfig(
            tenant_rate=12.0, tenant_burst=8.0, max_queue_items=64
        ),
        autoscaler=AutoscalerConfig(
            min_ranks=1,
            max_ranks=6,
            interval=0.1,
            high_water=0.02,
            low_water=0.005,
            step=2,
            cooldown=0.2,
        ),
        max_batch_size=8,
    )


def run_baseline():
    """One serve run of the pinned scenario."""
    from repro.cluster.simulation import ClusterSimulation
    from repro.dht.process_map import HashProcessMap

    requests = BurstyArrivals(**BASELINE_TRACE).requests()
    sim = ClusterSimulation(1, HashProcessMap(1), mode="hybrid")
    return sim.serve(requests, config=baseline_config())


def test_serving_beats_naive_fifo(run_once, show):
    """Shedding + autoscaling wins p99 and goodput over naive FIFO."""
    result = run_once(run_serve_ablation, bench_scale())
    show(result)
    rows = {row["config"]: row for row in result.data["rows"]}
    naive, full = rows["naive-fifo"], rows["full"]
    assert full["p99"] < naive["p99"]
    assert full["goodput"] > naive["goodput"]
    # shedding is doing real work under the bursts...
    assert full["shed"] > 0
    # ...and so is the autoscaler
    assert full["pool_peak"] > 1
    # the naive baseline admits everything and still loses
    assert naive["shed"] == 0
    # admitted jobs always complete (open-loop drain, exactly-once)
    for row in rows.values():
        assert row["completed"] == row["admitted"]


def test_serve_baseline_is_recorded_and_pinned(show):
    """BENCH_serve.json matches the deterministic scenario outputs."""
    result = run_baseline()
    payload = {
        "benchmark": "serve-baseline",
        "scenario": dict(BASELINE_TRACE, config="full"),
        "n_jobs": result.n_arrived,
        "n_admitted": result.n_admitted,
        "n_shed": result.n_shed,
        "n_on_time": result.n_on_time,
        "n_batches": result.n_batches,
        "n_events": result.n_events,
        "p99_seconds": result.latency_percentile(99.0),
        "goodput_per_second": result.goodput,
    }
    if os.environ.get("REPRO_BENCH_WRITE") == "1":
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        return
    assert BENCH_PATH.exists(), (
        "BENCH_serve.json missing — regenerate with REPRO_BENCH_WRITE=1"
    )
    pinned = json.loads(BENCH_PATH.read_text())
    for key in (
        "n_jobs",
        "n_admitted",
        "n_shed",
        "n_on_time",
        "n_batches",
        "n_events",
    ):
        assert payload[key] == pinned[key], key
    assert payload["p99_seconds"] == pytest.approx(
        pinned["p99_seconds"], rel=1e-12
    )
    assert payload["goodput_per_second"] == pytest.approx(
        pinned["goodput_per_second"], rel=1e-12
    )
