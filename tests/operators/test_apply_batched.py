"""The hybrid batched Apply must agree with the reference Apply."""

import math

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.mra.function import FunctionFactory, scaling_corner
from repro.mra.tree import FunctionTree
from repro.operators.apply_batched import BatchedApply
from repro.operators.convolution import (
    ApplyStats,
    CoulombOperator,
    GaussianConvolution,
    _NORM_FLOOR,
)
from repro.operators.gaussian_fit import single_gaussian
from tests.conftest import gaussian_1d, gaussian_nd, make_runtime


@pytest.fixture(scope="module")
def problem_1d():
    fac = FunctionFactory(dim=1, k=8, thresh=1e-8)
    f = fac.from_callable(gaussian_1d(800.0))
    op = GaussianConvolution(1, 8, single_gaussian(1.0, 400.0), thresh=1e-8)
    return f, op, op.apply(f)


@pytest.fixture(scope="module")
def problem_2d():
    fac = FunctionFactory(dim=2, k=6, thresh=1e-5)
    f = fac.from_callable(gaussian_nd(2, alpha=150.0))
    op = GaussianConvolution(2, 6, single_gaussian(1.0, 250.0), thresh=1e-6)
    return f, op, op.apply(f)


@pytest.mark.parametrize("mode", ["cpu", "gpu", "hybrid"])
def test_1d_batched_equals_reference(problem_1d, mode):
    f, op, reference = problem_1d
    result = BatchedApply(op, make_runtime(mode)).apply(f)
    assert (reference - result.function).norm2() < 1e-10


def test_2d_batched_equals_reference(problem_2d):
    f, op, reference = problem_2d
    result = BatchedApply(op, make_runtime("hybrid")).apply(f)
    rel = (reference - result.function).norm2() / reference.norm2()
    assert rel < 1e-5


def test_gpu_kernel_choice_does_not_change_numerics(problem_1d):
    f, op, _ref = problem_1d
    custom = BatchedApply(op, make_runtime("gpu", gpu_kernel="custom")).apply(f)
    cublas = BatchedApply(op, make_runtime("gpu", gpu_kernel="cublas")).apply(f)
    assert (custom.function - cublas.function).norm2() < 1e-12


def test_timeline_accounts_batches_and_items(problem_2d):
    f, op, _ref = problem_2d
    result = BatchedApply(op, make_runtime("hybrid")).apply(f)
    tl = result.timeline
    assert tl.n_batches > 0
    assert tl.n_cpu_items + tl.n_gpu_items == tl.n_tasks
    assert tl.total_seconds > 0
    assert result.stats.tasks > 0


def test_gpu_mode_ships_bytes(problem_2d):
    f, op, _ref = problem_2d
    result = BatchedApply(op, make_runtime("gpu")).apply(f)
    assert result.timeline.bytes_to_gpu > 0
    assert result.timeline.block_bytes_shipped > 0
    assert result.timeline.n_cpu_items == 0


def test_cpu_mode_ships_nothing(problem_2d):
    f, op, _ref = problem_2d
    result = BatchedApply(op, make_runtime("cpu")).apply(f)
    assert result.timeline.bytes_to_gpu == 0
    assert result.timeline.n_gpu_items == 0


def test_block_cache_dedups_transfers(problem_2d):
    """Within one run, repeated blocks cross PCIe once (write-once cache).

    A small batch cap forces several batches per kind so that later
    batches find their blocks already resident.
    """
    f, op, _ref = problem_2d
    runtime = make_runtime("gpu", max_batch_size=4)
    result = BatchedApply(op, runtime).apply(f)
    cache = runtime.gpu_cache
    assert cache.stats.hits > 0
    assert result.timeline.block_bytes_shipped == cache.stats.bytes_inserted


def test_dimension_mismatch_rejected(problem_1d):
    _f, op, _ref = problem_1d
    fac = FunctionFactory(dim=2, k=8, thresh=1e-4)
    with pytest.raises(OperatorError):
        BatchedApply(op, make_runtime()).apply(fac.zero())


def test_hybrid_time_between_pure_modes(problem_2d):
    """Simulated hybrid time must not exceed either pure mode."""
    f, op, _ref = problem_2d
    times = {}
    for mode in ("cpu", "gpu", "hybrid"):
        times[mode] = BatchedApply(op, make_runtime(mode)).apply(f).timeline.total_seconds
    assert times["hybrid"] <= 1.15 * min(times["cpu"], times["gpu"])


# -- the task stream against the per-node generator --------------------------------


def _reference_tasks(gen, src, result_tree, stats, source_log):
    """The per-node generator ``generate_tasks`` replaced: one
    ``term_norms`` call per surviving (node, displacement) pair."""
    op = gen.op
    tol = op.thresh
    corner = scaling_corner(op.dim, op.k)
    tasks = []
    for key, node in src.tree.by_level():
        if node.coeffs is None:
            continue
        stats.source_nodes += 1
        chat = op._combined(node)
        cnorm = float(np.linalg.norm(chat))
        if cnorm == 0.0:
            continue
        disps = op.level_displacements(key.level)
        tol_task = tol / max(1, len(disps))
        for delta, opnorm in disps:
            if opnorm * cnorm < tol_task:
                stats.screened_displacements += 1
                continue
            neighbor = key.neighbor(delta)
            if neighbor is None:
                continue
            mu_tol = tol_task / (max(cnorm, _NORM_FLOOR) * max(1, op.expansion.rank))
            norms_mu = op.term_norms(key.level, delta, subtracted=key.level > 0)
            keep = np.nonzero(norms_mu > mu_tol)[0]
            if keep.size == 0:
                continue
            stats.record_task(key.level)
            stats.mu_applications += int(keep.size)
            tasks.append(
                gen._make_task(key.level, delta, chat, keep, neighbor, result_tree, ns=True)
            )
            source_log.append(key)
            if key.level > 0:
                tasks.append(
                    gen._make_task(
                        key.level, delta, chat[corner], keep, neighbor, result_tree,
                        ns=False,
                    )
                )
                source_log.append(key)
    return tasks


class _Recorder(BatchedApply):
    """Logs each task as (level, delta, kept mu, neighbour, NS?, input)."""

    def __init__(self, op):
        super().__init__(op, runtime=None)
        self.log = []

    def _make_task(self, level, delta, s, keep, neighbor, result_tree, *, ns):
        self.log.append((level, delta, tuple(keep.tolist()), neighbor, ns, s))
        return super()._make_task(level, delta, s, keep, neighbor, result_tree, ns=ns)


def _task_stream(f, op, generate):
    src = f.copy()
    src.nonstandard()
    gen, stats, source_log = _Recorder(op), ApplyStats(), []
    tasks = generate(gen, src, FunctionTree(op.dim), stats, source_log)
    assert len(tasks) == len(gen.log) == len(source_log)
    return gen.log, source_log, stats


def _fast_tasks(gen, src, result_tree, stats, source_log):
    return gen.generate_tasks(src, result_tree, stats, source_log=source_log)


def _coulomb_seed0_density():
    """perf's coulomb-apply density at seed 0: the tier-1 charge
    (thresh 2e-3, alpha 150) at (0.53, 0.45, 0.57), projected at k=4."""
    alpha, centre = 150.0, np.array([0.53, 0.45, 0.57])
    norm = (alpha / math.pi) ** 1.5

    def rho(x):
        return norm * np.exp(-alpha * ((x - centre) ** 2).sum(axis=1))

    return FunctionFactory(dim=3, k=4, thresh=2e-3).from_callable(rho)


def _coulomb_seed0_operator():
    """perf's cold coulomb-apply operator: k=4, eps 1e-2."""
    return CoulombOperator(dim=3, k=4, eps=1e-2, r_lo=0.1 * math.sqrt(1e-2))


@pytest.fixture(scope="module")
def coulomb_seed0():
    return _coulomb_seed0_density()


@pytest.mark.parametrize("problem", ["problem_1d", "problem_2d", "coulomb_seed0"])
def test_task_stream_matches_per_node_generator(problem, request):
    """Same tasks in the same order, same source log, same stats."""
    if problem == "coulomb_seed0":
        f, op = request.getfixturevalue(problem), _coulomb_seed0_operator()
    else:
        f, op, _ref = request.getfixturevalue(problem)
    fast_log, fast_sources, fast_stats = _task_stream(f, op, _fast_tasks)
    ref_log, ref_sources, ref_stats = _task_stream(f, op, _reference_tasks)
    assert fast_log
    assert [t[:5] for t in fast_log] == [t[:5] for t in ref_log]
    assert all(np.array_equal(a[5], b[5]) for a, b in zip(fast_log, ref_log))
    assert fast_sources == ref_sources
    assert fast_stats == ref_stats


def test_seed0_screening_pin(coulomb_seed0):
    """The cold seed-0 coulomb-apply screening, pinned before the level
    table replaced the per-node loop."""
    op = _coulomb_seed0_operator()
    src = coulomb_seed0.copy()
    src.nonstandard()
    stats = ApplyStats()
    tasks = BatchedApply(op, None).generate_tasks(src, FunctionTree(3), stats)
    assert len(tasks) == 1439
    assert stats == ApplyStats(
        source_nodes=3721,
        tasks=720,
        mu_applications=3217,
        screened_displacements=76005,
        by_level={0: 1, 1: 64, 2: 238, 3: 258, 4: 159},
    )
    assert (len(op.r_cache), op.r_cache.stats.bytes_inserted) == (1005, 128640)
    assert (len(op.ns_cache), op.ns_cache.stats.bytes_inserted) == (435, 222720)
    assert {level: len(op.level_displacements(level)) for level in range(7)} == {
        0: 4913, 1: 117, 2: 81, 3: 27, 4: 27, 5: 19, 6: 7,
    }
