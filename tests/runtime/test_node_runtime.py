"""End-to-end tests of the single-node hybrid runtime (simulated time)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.coulomb import probe_item
from repro.kernels.base import FormulaPayload
from repro.runtime.task import HybridTask, TaskKind, WorkItem
from tests.conftest import make_runtime


def make_tasks(n, *, flops=20_000_000, q=20, dim=3, rank=50):
    kind = TaskKind("integral_compute", (dim, q))
    steps = rank * dim
    rows = q ** (dim - 1)
    tasks = []
    for i in range(n):
        item = WorkItem(
            kind=kind,
            flops=flops,
            input_bytes=q**dim * 8,
            output_bytes=q**dim * 8,
            block_keys=tuple((i % 5, mu) for mu in range(rank)),
            block_bytes=rank * q * q * 8,
            steps=steps,
            step_rows=rows,
            step_q=q,
        )
        tasks.append(HybridTask(work=item, pre_bytes=item.input_bytes,
                                post_bytes=item.output_bytes))
    return tasks


def test_all_tasks_processed():
    rt = make_runtime("hybrid")
    tl = rt.execute(make_tasks(200))
    assert tl.n_tasks == 200
    assert tl.n_cpu_items + tl.n_gpu_items == 200


def test_gpu_mode_routes_everything_to_gpu():
    tl = make_runtime("gpu").execute(make_tasks(100))
    assert tl.n_gpu_items == 100
    assert tl.n_cpu_items == 0
    assert tl.gpu_busy > 0
    assert tl.bytes_to_gpu > 0


def test_cpu_mode_uses_no_gpu():
    tl = make_runtime("cpu").execute(make_tasks(100))
    assert tl.n_gpu_items == 0
    assert tl.gpu_busy == 0.0  # repro: noqa[FLT001] - gpu never ran, exact zero
    assert tl.pcie_busy == 0.0  # repro: noqa[FLT001] - gpu never ran, exact zero


def test_hybrid_not_slower_than_pure_modes():
    tasks = make_tasks(300)
    times = {
        mode: make_runtime(mode).execute(make_tasks(300)).total_seconds
        for mode in ("cpu", "gpu", "hybrid")
    }
    assert times["hybrid"] <= 1.1 * min(times["cpu"], times["gpu"])
    del tasks


def test_more_streams_help_custom_kernel():
    t1 = make_runtime("gpu", gpu_streams=1).execute(make_tasks(300)).total_seconds
    t5 = make_runtime("gpu", gpu_streams=5).execute(make_tasks(300)).total_seconds
    assert t5 < t1
    # Table I: about 2.9x from 1 to 5 streams
    assert 2.0 < t1 / t5 < 3.8


def test_more_threads_help_cpu():
    t1 = make_runtime("cpu", cpu_threads=1).execute(make_tasks(200)).total_seconds
    t16 = make_runtime("cpu", cpu_threads=16).execute(make_tasks(200)).total_seconds
    # Table I: ~6.7x from 1 to 16 threads (FPU/module contention)
    assert 5.5 < t1 / t16 < 8.0


def test_batch_cap_respected():
    rt = make_runtime("hybrid", max_batch_size=25)
    tl = rt.execute(make_tasks(100))
    assert tl.n_batches >= 4


def test_setup_cost_charged_once():
    rt = make_runtime("cpu")
    tl = rt.execute(make_tasks(10))
    assert tl.setup_seconds == pytest.approx(rt.buffer_pool.setup_cost_seconds)
    assert tl.total_seconds > tl.setup_seconds


def test_empty_task_list():
    tl = make_runtime("hybrid").execute([])
    assert tl.n_tasks == 0
    assert tl.n_batches == 0


def test_estimates_accumulated_per_batch():
    tl = make_runtime("hybrid").execute(make_tasks(100))
    assert tl.est_cpu_only > 0
    assert tl.est_gpu_only > 0


def test_busy_never_exceeds_makespan():
    tl = make_runtime("hybrid").execute(make_tasks(200))
    assert tl.gpu_busy <= tl.total_seconds + 1e-9
    assert tl.cpu_compute_busy <= tl.total_seconds + 1e-9
    assert tl.pcie_busy <= tl.total_seconds + 1e-9


def test_block_cache_limits_shipped_bytes():
    """Only 5 distinct block families exist, so shipped block bytes are
    far below the naive per-task total."""
    tl = make_runtime("gpu").execute(make_tasks(100))
    naive_total = 100 * 50 * 20 * 20 * 8
    assert tl.block_bytes_shipped < naive_total / 2


def test_batch_record_rejects_unknown_fields():
    """A batch record has slots: a write to a field it does not declare
    (the block counts live in the registry's ``cache.blocks_*``) raises
    instead of adding an attribute nothing reads."""
    tl = make_runtime("gpu").execute(make_tasks(20))
    rec = tl.batches[0]
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.blocks_shipped = 1
    rec.attempts = 2  # declared fields stay writable


def payload_tasks(n, *, dim=2, k=8, rank=10, seed=0):
    """Formula 1 tasks carrying real payloads and no postprocess hook."""
    proto = probe_item(dim, k, rank)
    q = 2 * k
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(n):
        payload = FormulaPayload(
            s=rng.standard_normal((q,) * dim),
            factors=[
                tuple(rng.standard_normal((q, q)) for _ in range(dim))
                for _ in range(rank)
            ],
            coeffs=rng.standard_normal(rank),
        )
        tasks.append(HybridTask(work=replace(proto, payload=payload)))
    return tasks


@pytest.mark.parametrize("mode", ["cpu", "gpu", "hybrid"])
def test_results_kept_on_every_device(mode):
    """With no ``on_complete`` hook, every item's result lands on the
    timeline, whichever device computed it.  Regression: the planned CPU
    share dropped them."""
    tasks = payload_tasks(40)
    tl = make_runtime(mode).execute(tasks)
    if mode == "hybrid":
        assert tl.n_cpu_items and tl.n_gpu_items
    assert len(tl.results) == len(tasks)
    assert {id(item) for item, _ in tl.results} == {id(t.work) for t in tasks}
    for item, result in tl.results:
        ref = item.payload.reference_result()
        assert np.linalg.norm(result - ref) <= 1e-12 * np.linalg.norm(ref)
