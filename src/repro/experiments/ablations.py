"""Ablation runners: what each mechanism of the extensions is worth."""

from __future__ import annotations

from repro.analysis.reporting import ReportTable
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import KEPLER_GPU, TITAN_GPU, TITAN_PCIE
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.buffers import PinnedBufferPool, naive_transfer_plan
from repro.runtime.task import BatchStats

from repro.experiments.common import ExperimentResult, make_runtime, scaled, single_node_tasks

ABLATION_TASKS = 2400


def run_transfer_ablation(scale: float = 1.0) -> ExperimentResult:
    """Data aggregation: batched pinned transfers vs the naive port."""
    del scale
    item_bytes = [20**3 * 8] * 600
    pool = PinnedBufferPool(TITAN_PCIE)
    batched = pool.plan(sum(item_bytes)).total_seconds + pool.setup_cost_seconds
    pageable = naive_transfer_plan(TITAN_PCIE, item_bytes, pin_each=False)
    pinned_each = naive_transfer_plan(TITAN_PCIE, item_bytes, pin_each=True)
    table = ReportTable(
        "Ablation — transferring 600 task inputs to the GPU",
        ["strategy", "seconds"],
    )
    table.add_row("pre-allocated pinned buffers (paper)", batched)
    table.add_row("naive: one pageable transfer per task", pageable.total_seconds)
    table.add_row("naive: page-lock each task input", pinned_each.total_seconds)
    return ExperimentResult(
        name="ablation-transfers",
        table=table,
        data={
            "batched": batched,
            "pageable": pageable.total_seconds,
            "pinned_each": pinned_each.total_seconds,
        },
    )


def run_batching_ablation(scale: float = 1.0) -> ExperimentResult:
    """Computation aggregation: batch size 60 vs per-task dispatch."""
    n = scaled(ABLATION_TASKS, scale)
    results = {}
    for label, cap in (("batch of 60 (paper)", 60), ("batch of 4", 4),
                       ("no batching (1 task)", 1)):
        rt = make_runtime("gpu", max_batch_size=cap, flush_interval=1e-4)
        results[label] = rt.execute(single_node_tasks(n)).total_seconds
    table = ReportTable(
        "Ablation — GPU batch size (custom kernel, k=10 Coulomb tasks)",
        ["configuration", "seconds"],
    )
    for label, seconds in results.items():
        table.add_row(label, seconds)
    return ExperimentResult(
        name="ablation-batching", table=table, data={"results": results}
    )


def run_overlap_ablation(scale: float = 1.0) -> ExperimentResult:
    """CPU-GPU overlap: hybrid vs best single device."""
    n = scaled(ABLATION_TASKS, scale)
    times = {
        mode: make_runtime(mode).execute(single_node_tasks(n)).total_seconds
        for mode in ("cpu", "gpu", "hybrid")
    }
    table = ReportTable(
        "Ablation — CPU/GPU computation overlap", ["configuration", "seconds"]
    )
    table.add_row("CPU only (16 threads)", times["cpu"])
    table.add_row("GPU only (5 streams)", times["gpu"])
    table.add_row("hybrid (optimal split)", times["hybrid"])
    return ExperimentResult(
        name="ablation-overlap", table=table, data={"times": times}
    )


def run_naive_port_ablation(scale: float = 1.0) -> ExperimentResult:
    """The whole system vs the strawman 'naive CPU-GPU port' (Section I)."""
    n = scaled(ABLATION_TASKS, scale)
    out = {}
    for label, naive in (("MADNESS extensions (paper)", False),
                         ("naive per-task port", True)):
        rt = make_runtime("gpu", cpu_threads=12, naive_port=naive)
        tl = rt.execute(single_node_tasks(n))
        out[label] = (tl.total_seconds, tl.block_bytes_shipped)
    table = ReportTable(
        "Ablation — the naive CPU-GPU port the paper argues against",
        ["configuration", "seconds", "operator-block MB over PCIe"],
    )
    for label, (seconds, block_bytes) in out.items():
        table.add_row(label, seconds, block_bytes / 1e6)
    return ExperimentResult(
        name="ablation-naive-port", table=table, data={"out": out}
    )


def run_dynamic_parallelism_ablation(scale: float = 1.0) -> ExperimentResult:
    """Future work (paper Section VI): GPU rank reduction on Kepler."""
    del scale
    stats = BatchStats.of([t.work for t in single_node_tasks(60, k=10, rank=100)])
    out = {}
    for label, gpu, rr in (
        ("Fermi M2090, no rank reduction", TITAN_GPU, False),
        ("Fermi M2090, rank reduction (no-op)", TITAN_GPU, True),
        ("Kepler K20X, no rank reduction", KEPLER_GPU, False),
        ("Kepler K20X, rank reduction (dyn. par.)", KEPLER_GPU, True),
    ):
        kernel = CustomGpuKernel(GpuModel(gpu), rank_reduction=rr)
        out[label] = kernel.batch_timing(stats, 5).seconds
    table = ReportTable(
        "Ablation — rank reduction on the GPU (paper future work)",
        ["configuration", "batch seconds"],
    )
    for label, seconds in out.items():
        table.add_row(label, seconds)
    return ExperimentResult(
        name="ablation-dynamic-parallelism", table=table, data={"out": out}
    )


def _mixed_kind_tasks(n: int):
    """An irregular two-operator stream (paper Table IV has several
    operators in flight): interleaved k=12 and k=20 Coulomb tasks, so
    consecutive batches belong to different kinds with very different
    per-item weights."""
    a = single_node_tasks(n // 2, k=12, rank=100)
    b = single_node_tasks(n - n // 2, k=20, rank=60)
    out = []
    for x, y in zip(a, b):
        out.append(x)
        out.append(y)
    out.extend(a[len(b):] or b[len(a):])
    return out


def run_pipeline_ablation(scale: float = 1.0) -> ExperimentResult:
    """The concurrent pipeline vs serialised batches.

    Both runtimes are identical hybrid configurations; the only change
    is ``pipelined`` — multi-slot compute/stream pools, duplex PCIe,
    double-buffered staging and a multi-batch admission window vs one
    batch at a time through single-slot resources.  The workload is
    irregular (mixed heavy kinds, small batches), so single batches
    cannot balance CPU against GPU at item granularity — the overlap
    across consecutive batches is where the pipeline wins.
    """
    n = max(80, scaled(240, scale))
    out = {}
    for label, pipelined in (
        ("pipelined (overlapped batches)", True),
        ("serialized (one batch at a time)", False),
    ):
        tl = make_runtime(
            "hybrid", pipelined=pipelined, max_batch_size=10
        ).execute(_mixed_kind_tasks(n))
        out[label] = tl.total_seconds
    table = ReportTable(
        "Ablation — pipelined vs serialized node runtime (hybrid mode)",
        ["configuration", "seconds"],
    )
    for label, seconds in out.items():
        table.add_row(label, seconds)
    speedup = out["serialized (one batch at a time)"] / out[
        "pipelined (overlapped batches)"
    ]
    table.add_note(f"pipeline speedup: {speedup:.2f}x")
    return ExperimentResult(
        name="ablation-pipeline",
        table=table,
        data={
            "pipelined": out["pipelined (overlapped batches)"],
            "serialized": out["serialized (one batch at a time)"],
            "speedup": speedup,
        },
    )


def run_adaptive_ablation(scale: float = 1.0) -> ExperimentResult:
    """Feedback calibration: an AdaptiveDispatcher started with a 2x
    miscalibrated GPU cost model vs a static dispatcher with the same
    bad model, and vs the well-calibrated baseline."""
    # small batches so the run has enough of them for the EWMA loop to
    # act on plans within the admission window
    n = max(600, scaled(ABLATION_TASKS, scale))
    out = {}
    runs = {}
    configs = (
        ("well-calibrated static (reference)", False, 1.0),
        ("2x-miscalibrated static", False, 2.0),
        ("2x-miscalibrated adaptive (EWMA)", True, 2.0),
    )
    for label, adaptive, gpu_scale in configs:
        rt = make_runtime(
            "hybrid", adaptive=adaptive, gpu_scale=gpu_scale, max_batch_size=30
        )
        if not adaptive:
            rt.dispatcher.gpu_time_scale = gpu_scale
        tl = rt.execute(single_node_tasks(n))
        out[label] = tl.total_seconds
        runs[label] = tl
    table = ReportTable(
        "Ablation — feedback-calibrated dispatch under model miscalibration",
        ["configuration", "seconds", "final gpu scale", "final k_cpu"],
    )
    for label, adaptive, gpu_scale in configs:
        tl = runs[label]
        final_k = tl.batches[-1].cpu_fraction if tl.batches else 0.0
        final_scale = tl.batches[-1].gpu_scale if tl.batches else gpu_scale
        table.add_row(label, out[label], final_scale, final_k)
    return ExperimentResult(
        name="ablation-adaptive",
        table=table,
        data={
            "times": out,
            "cpu_fractions": {
                label: [b.cpu_fraction for b in runs[label].batches]
                for label, _, _ in configs
            },
        },
    )


def run_flush_interval_ablation(scale: float = 1.0) -> ExperimentResult:
    """The batching timer: too short starves batches, too long delays
    work; the mid-range is near-optimal for this workload."""
    n = scaled(ABLATION_TASKS, scale)
    out = {}
    for interval in (0.0005, 0.005, 0.05):
        rt = make_runtime("hybrid", flush_interval=interval)
        out[interval] = rt.execute(single_node_tasks(n)).total_seconds
    table = ReportTable(
        "Ablation — batching timer (flush interval)",
        ["flush interval (s)", "seconds"],
    )
    for interval, seconds in out.items():
        table.add_row(interval, seconds)
    return ExperimentResult(
        name="ablation-flush-interval", table=table, data={"out": out}
    )
