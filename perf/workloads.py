"""The benchmark's four workloads: the paper's scenarios, built from a seed.

Each workload has three steps per repeat, and only the middle one is the
scenario a user waits for:

- ``build(seed)`` makes the inputs (timed as ``setup_s``);
- ``run(inputs)`` runs the scenario (timed as ``run_s``);
- ``outputs``/``invariants`` read the result back (not timed).

Seed 0 selects the canonical instance whose outputs ``pins.json`` holds;
any other seed derives fresh inputs of the same size from the seed, and
only the seed-independent invariants apply to it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.special import erf

from repro.apps.tdse import TDSE_TASKS, TdseApplication
from repro.apps.workloads import SyntheticApplyWorkload
from repro.cluster.simulation import ClusterSimulation
from repro.cluster.stealing import StealingConfig
from repro.dht.process_map import HashProcessMap, SubtreePartitionMap
from repro.experiments.common import cost_pmap, make_runtime, run_cluster, scaled
from repro.experiments.serve import CONFIGS, FULL_HORIZON, _config
from repro.experiments.stealing import TASKS_PER_RANK
from repro.experiments.tables import PAPER_TABLE6, TABLE6_TARGET_CHUNKS
from repro.mra.function import FunctionFactory
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import CoulombOperator
from repro.serve.arrivals import BurstyArrivals


def _timing_name(config: str) -> str:
    """Per-layer metric name of one serve config's host seconds."""
    return f"serve.config.{config.lstrip('+')}.wall_s"


def _cluster_invariants(result, n_tasks: int) -> list[str]:
    """Every input task is counted once, cluster-wide."""
    failures = []
    if result.total_tasks != n_tasks:
        failures.append(f"total_tasks {result.total_tasks} != {n_tasks} inputs")
    executed = sum(r.n_tasks for r in result.node_results)
    if executed != n_tasks:
        failures.append(f"ranks executed {executed} tasks of {n_tasks}")
    return failures


class Workload:
    """What the workloads share: exact pins unless ``rel_tol`` names an
    output, and no timings inside the scenario."""

    #: relative tolerance of a pinned output; the others compare exactly
    rel_tol: dict[str, float] = {}

    def timings(self, result) -> dict[str, float]:
        """Host seconds of parts of the scenario (none by default)."""
        return {}


class CoulombApply(Workload):
    """Real Coulomb ``Apply`` through the hybrid node runtime.

    The density is the tier-1 instance's
    (``tests/integration/test_end_to_end.py``: thresh 2e-3, alpha 150),
    projected at k=4 instead of 5, and the operator precision is 1e-2
    instead of 1e-3.  That cuts one Apply from about 20 s to under 2 s,
    so one run of the benchmark holds many repeats.  The charge sits off
    the box centre, and a seed picks one of the 48 mirror/axis-permutation
    images of that position: every seed gets a different input whose
    tree has the same shape, so host time does not depend on the seed.
    """

    name = "coulomb-apply"
    k, thresh, eps, alpha = 4, 2e-3, 1e-2, 150.0
    centre = (0.53, 0.45, 0.57)
    radii = (0.05, 0.1, 0.2, 0.3)
    max_rel_err = 5e-3
    rel_tol = {"norm2": 1e-10}

    def charge_centre(self, seed: int) -> tuple[float, ...]:
        """The seed's image of the canonical charge centre."""
        offset = np.array(self.centre) - 0.5
        if seed != 0:
            rng = np.random.default_rng(seed)
            signs = np.where(rng.integers(0, 2, size=3) == 1, -1.0, 1.0)
            offset = offset[rng.permutation(3)] * signs
        return tuple(float(x) for x in 0.5 + offset)

    def build(self, seed: int):
        """Project the density and fit the ``1/r`` operator."""
        centre = np.array(self.charge_centre(seed))
        alpha = self.alpha
        norm = (alpha / math.pi) ** 1.5

        def rho(x: np.ndarray) -> np.ndarray:
            return norm * np.exp(-alpha * ((x - centre) ** 2).sum(axis=1))

        density = FunctionFactory(dim=3, k=self.k, thresh=self.thresh).from_callable(rho)
        operator = CoulombOperator(
            dim=3, k=self.k, eps=self.eps, r_lo=math.sqrt(self.eps) * 0.1
        )
        return centre, density, operator

    def run(self, inputs):
        """One Apply with a cold operator (its block caches start empty)."""
        _centre, density, operator = inputs
        runtime = make_runtime("hybrid", flush_interval=0.005)
        return BatchedApply(operator, runtime).apply(density)

    def outputs(self, result) -> dict:
        """Pinned at seed 0."""
        return {
            "tasks": result.stats.tasks,
            "sim_seconds": result.timeline.total_seconds,
            "norm2": result.function.norm2(),
        }

    def invariants(self, inputs, result) -> tuple[dict, list[str]]:
        """The potential matches ``erf(sqrt(alpha) r) / r`` at every seed."""
        centre = inputs[0]
        errors = []
        for r in self.radii:
            point = centre.copy()
            point[0] += r
            want = float(erf(math.sqrt(self.alpha) * r) / r)
            got = result.function.eval(tuple(point))
            errors.append(abs(got - want) / want)
        worst = max(errors)
        failures = []
        if not worst < self.max_rel_err:
            failures.append(f"max_rel_err {worst:.3g} >= {self.max_rel_err}")
        tl = result.timeline
        if tl.n_cpu_items + tl.n_gpu_items != tl.n_tasks:
            failures.append(
                f"devices ran {tl.n_cpu_items} + {tl.n_gpu_items} items "
                f"of {tl.n_tasks} tasks"
            )
        return {"max_rel_err": worst}, failures


class Table6(Workload):
    """The paper's Table VI grid: nodes x {cpu, gpu, hybrid} on the 4-D
    TDSE workload, each cell run exactly as ``run_table6`` runs it.

    Tasks are scaled by ``scale`` and the paper's node counts by
    ``node_scale``, so a node holds about as many tasks as at scale 0.02
    with the paper's node counts, and one repeat takes about a second.
    """

    name = "table6"
    scale = 0.001
    node_scale = 0.05

    def build(self, seed: int):
        """The TDSE task stream and one cost-partition map per node count."""
        seeded = {} if seed == 0 else {"seed": seed}
        app = TdseApplication(n_tasks=scaled(TDSE_TASKS, self.scale), **seeded)
        workload = app.workload()
        node_counts = [round(n * self.node_scale) for n in PAPER_TABLE6]
        pmaps = {
            nodes: cost_pmap(workload, nodes, TABLE6_TARGET_CHUNKS)
            for nodes in node_counts
        }
        return workload, pmaps

    def run(self, inputs) -> dict:
        """The 15 cluster runs of the grid."""
        workload, pmaps = inputs
        cells = {}
        for nodes, pmap in pmaps.items():
            kw = dict(pmap=pmap, flush_interval=0.03)
            cells[f"{nodes}/cpu"] = run_cluster(
                workload, nodes, mode="cpu", rank_reduction=True, **kw
            )
            cells[f"{nodes}/gpu"] = run_cluster(
                workload, nodes, mode="gpu", gpu_kernel="cublas", **kw
            )
            cells[f"{nodes}/hybrid"] = run_cluster(
                workload, nodes, mode="hybrid", gpu_kernel="cublas",
                rank_reduction=True, **kw
            )
        return cells

    def outputs(self, result: dict) -> dict:
        """The 15 makespans, pinned at seed 0."""
        return {cell: r.makespan_seconds for cell, r in result.items()}

    def invariants(self, inputs, result: dict) -> tuple[dict, list[str]]:
        """Every cell runs every task once."""
        n_tasks = len(inputs[0].tasks)
        failures = []
        for cell, r in result.items():
            failures += [f"{cell}: {f}" for f in _cluster_invariants(r, n_tasks)]
        return {"tasks": n_tasks}, failures


class Steal(Workload):
    """``BENCH_cluster.json``'s scenario at ``ranks`` ranks: skewed tree,
    subtree placement, stealing with the analytic executor.

    The benchmark runs 700 ranks, where one run takes under a second;
    at 5000 ranks (about 18 s) the outputs are ``BENCH_cluster.json``'s
    pinned block, which ``test_perf.py`` checks.
    """

    def __init__(self, ranks: int = 700):
        self.ranks = ranks
        self.name = f"steal-{ranks}"

    def build(self, seed: int):
        """The skewed workload of ``repro.experiments.stealing`` (seed 13
        at seed 0) and its subtree placement."""
        workload = SyntheticApplyWorkload(
            dim=3,
            k=8,
            rank=40,
            n_tasks=TASKS_PER_RANK * self.ranks,
            n_tree_leaves=max(64, self.ranks // 2),
            seed=13 if seed == 0 else seed,
            skew=3.0,
        )
        return workload, SubtreePartitionMap(self.ranks, anchor_level=2)

    def run(self, inputs):
        """One stealing run."""
        workload, pmap = inputs
        sim = ClusterSimulation(
            self.ranks,
            pmap,
            mode="hybrid",
            stealing=StealingConfig(enabled=True, chunk_size=4, executor="analytic"),
        )
        return sim.run(workload.tasks)

    def outputs(self, result) -> dict:
        """The six fields of ``BENCH_cluster.json["pinned"]``."""
        return {
            "makespan_seconds": result.makespan_seconds,
            "n_events": result.total_events,
            "total_tasks": result.total_tasks,
            "total_messages": result.total_messages,
            "total_message_bytes": result.total_message_bytes,
            "imbalance": result.imbalance.imbalance,
        }

    def invariants(self, inputs, result) -> tuple[dict, list[str]]:
        """Stealing neither loses nor duplicates a task."""
        n_tasks = len(inputs[0].tasks)
        return {"tasks": n_tasks}, _cluster_invariants(result, n_tasks)


class ServeAblation(Workload):
    """The five ``serve-ablation`` configs over the first ``jobs``
    arrivals of the bursty trace (about 15 of its 20 simulated seconds;
    the admit-all configs still build a backlog).  A fixed job count,
    rather than the whole horizon, keeps the work of one instance closer
    to another's."""

    name = "serve-ablation"
    jobs = 1000

    def build(self, seed: int):
        """The open-loop arrival trace (``bursty_trace``'s shape)."""
        return BurstyArrivals(
            rate=30.0,
            burst_rate=150.0,
            period=2.0,
            burst_fraction=0.3,
            horizon=FULL_HORIZON,
            n_tenants=4,
            seed=17 if seed == 0 else seed,
        ).requests()[: self.jobs]

    def run(self, inputs) -> dict:
        """Each config on a fresh one-rank cluster; returns
        ``{config: (result, host seconds)}``."""
        out = {}
        for name in CONFIGS:
            start = time.perf_counter()
            sim = ClusterSimulation(1, HashProcessMap(1), mode="hybrid")
            result = sim.serve(inputs, config=_config(name))
            out[name] = (result, time.perf_counter() - start)
        return out

    def timings(self, result: dict) -> dict[str, float]:
        """Host seconds of each config within the scenario."""
        return {_timing_name(name): seconds for name, (_r, seconds) in result.items()}

    def outputs(self, result: dict) -> dict:
        """Per config: counts, p99 and goodput, pinned at seed 0."""
        return {
            name: {
                "admitted": r.n_admitted,
                "shed": r.n_shed,
                "on_time": r.n_on_time,
                "batches": r.n_batches,
                "events": r.n_events,
                "p99": r.latency_percentile(99.0),
                "goodput": r.goodput,
            }
            for name, (r, _s) in result.items()
        }

    def invariants(self, inputs, result: dict) -> tuple[dict, list[str]]:
        """Every arrival is admitted xor shed; every admitted job completes."""
        failures = []
        if len(inputs) != self.jobs:
            failures.append(f"the trace has {len(inputs)} of {self.jobs} jobs")
        for name, (r, _s) in result.items():
            if r.n_arrived != len(inputs):
                failures.append(f"{name}: {r.n_arrived} of {len(inputs)} arrived")
            if r.n_admitted + r.n_shed != r.n_arrived:
                failures.append(f"{name}: admitted + shed != arrived")
            if r.n_completed != r.n_admitted:
                failures.append(
                    f"{name}: {r.n_completed} of {r.n_admitted} admitted completed"
                )
        return {"arrivals": len(inputs)}, failures


WORKLOADS = {w.name: w for w in (CoulombApply(), Table6(), Steal(), ServeAblation())}

#: per-config serve timings reported by the traced run (zero elsewhere)
SERVE_TIMINGS = tuple(_timing_name(name) for name in CONFIGS)
