"""The hybrid CPU/GPU dispatcher and the optimal-overlap split.

"Consider that a CPU-only run takes time m and a GPU-only run takes time
n.  The minimal computation time can be achieved by an optimal CPU-GPU
computation overlap ... minimizing ``max(m k, n (1 - k))`` with
``k in [0, 1]`` ... the optimal CPU-GPU work overlap is achieved when
``m k = n (1 - k)``, so ``k = n / (m + n)``.  The minimal runtime is thus
``m n / (m + n)``." (paper, Section II-A)

:class:`HybridDispatcher` estimates ``m`` and ``n`` for a flushed batch
from the kernel cost models (including the GPU's transfer cost) and
splits the items by cumulative FLOPs as close to the optimal fraction as
the granularity allows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RuntimeConfigError
from repro.kernels.base import ComputeKernel
from repro.runtime.batching import Batch
from repro.runtime.task import BatchStats, BlockFold, WorkItem

MODES = ("cpu", "gpu", "hybrid")


def optimal_split(m: float, n: float) -> float:
    """Fraction of work sent to the CPU: ``k = n / (m + n)``."""
    if m < 0 or n < 0 or m + n == 0:
        raise RuntimeConfigError(f"invalid per-device times m={m}, n={n}")
    return n / (m + n)


def overlap_time(m: float, n: float) -> float:
    """The paper's minimal hybrid runtime ``m n / (m + n)``."""
    if m < 0 or n < 0:
        raise RuntimeConfigError(f"invalid per-device times m={m}, n={n}")
    if m + n == 0:
        return 0.0
    return m * n / (m + n)


@dataclass
class DispatchPlan:
    """The dispatcher's decision for one batch.

    ``cpu_stats`` and ``gpu_stats`` are each share's aggregate, exactly
    ``BatchStats.of(share)``: the node runtime prices and ships each
    share from these instead of re-aggregating its items.
    """

    cpu_items: list[WorkItem]
    gpu_items: list[WorkItem]
    est_cpu_seconds: float  # m, for the whole batch
    est_gpu_seconds: float  # n, for the whole batch
    cpu_fraction: float
    cpu_stats: BatchStats
    gpu_stats: BatchStats


class HybridDispatcher:
    """Splits flushed batches between the CPU threads and the GPU.

    Args:
        cpu_kernel / gpu_kernel: timing + numeric kernels per device.
        cpu_threads: CPU threads available for *compute* tasks.
        gpu_streams: concurrent CUDA streams.
        mode: "cpu" (everything on CPU), "gpu" (all compute on the GPU),
            or "hybrid" (optimal-overlap split).

    A ``transfer_estimator`` — callable(BatchStats) -> seconds added to
    the GPU-side estimate (PCIe cost of the batch inputs) — is passed per
    plan, never stored: a dispatcher may be shared between nodes, each
    with its own PCIe link.  Without one the GPU is charged no transfer.
    """

    def __init__(
        self,
        cpu_kernel: ComputeKernel,
        gpu_kernel: ComputeKernel,
        *,
        cpu_threads: int,
        gpu_streams: int,
        mode: str = "hybrid",
    ):
        if mode not in MODES:
            raise RuntimeConfigError(f"unknown dispatch mode {mode!r}")
        if cpu_threads < 1 or gpu_streams < 1:
            raise RuntimeConfigError(
                f"cpu_threads={cpu_threads} and gpu_streams={gpu_streams} must be >= 1"
            )
        self.cpu_kernel = cpu_kernel
        self.gpu_kernel = gpu_kernel
        self.cpu_threads = cpu_threads
        self.gpu_streams = gpu_streams
        self.mode = mode
        # calibration multipliers applied to the raw cost-model estimates;
        # 1.0 here, adjusted online by AdaptiveDispatcher
        self.cpu_time_scale = 1.0
        self.gpu_time_scale = 1.0

    # -- estimates ------------------------------------------------------------

    def cpu_share_seconds(self, stats: BatchStats) -> float:
        """Raw (unscaled) cost-model time of a share on the CPU threads."""
        return self.cpu_kernel.batch_timing(stats, self.cpu_threads).seconds

    def gpu_share_seconds(self, stats: BatchStats, transfer_estimator=None) -> float:
        """Raw (unscaled) cost-model time of a share on the GPU streams,
        plus its PCIe estimate when ``transfer_estimator`` is given."""
        seconds = self.gpu_kernel.batch_timing(stats, self.gpu_streams).seconds
        if transfer_estimator is not None:
            seconds += transfer_estimator(stats)
        return seconds

    def device_estimates(
        self, stats: BatchStats, transfer_estimator=None
    ) -> tuple[float, float]:
        """(m, n): whole-batch CPU-only and GPU-only durations."""
        m = self.cpu_share_seconds(stats) * self.cpu_time_scale
        n = self.gpu_share_seconds(stats, transfer_estimator) * self.gpu_time_scale
        return m, n

    # -- planning ---------------------------------------------------------------

    def plan(self, batch: Batch, transfer_estimator=None) -> DispatchPlan:
        """Split one flushed batch per the configured mode (cpu/gpu/hybrid).

        Every fold of the plan — the whole batch, the split search's
        prefixes and suffixes, and the two shares — shares one key set
        per block family (see :class:`BlockFold`), built the first time
        a fold meets the family and dropped with the plan."""
        items = batch.items
        key_sets: dict[int, frozenset] = {}
        stats = BatchStats.of(items, key_sets)
        m, n = self.device_estimates(stats, transfer_estimator)
        if self.mode == "cpu":
            return self._cut_plan(items, len(items), stats, m, n, 1.0)
        if self.mode == "gpu":
            return self._cut_plan(items, 0, stats, m, n, 0.0)
        cut = self._best_cut(items, transfer_estimator, key_sets)
        k = self._fraction(items[:cut], items)
        return self._cut_plan(items, cut, stats, m, n, k, key_sets)

    @staticmethod
    def _cut_plan(
        items: list[WorkItem], cut: int, stats: BatchStats,
        m: float, n: float, k: float,
        key_sets: dict[int, frozenset] | None = None,
    ) -> DispatchPlan:
        """The plan sending ``items[:cut]`` to the CPU and the rest to the
        GPU; a share that is the whole batch reuses its aggregate
        ``stats``, and the two shares of a split fold through the plan's
        ``key_sets``."""
        cpu_items, gpu_items = list(items[:cut]), list(items[cut:])
        if not gpu_items:
            cpu_stats, gpu_stats = stats, BatchStats()
        elif not cpu_items:
            cpu_stats, gpu_stats = BatchStats(), stats
        else:
            cpu_stats = BatchStats.of(cpu_items, key_sets)
            gpu_stats = BatchStats.of(gpu_items, key_sets)
        return DispatchPlan(cpu_items, gpu_items, m, n, k, cpu_stats, gpu_stats)

    @staticmethod
    def _fraction(cpu_items: list[WorkItem], items) -> float:
        """Work fraction the CPU received: by FLOPs, or by item count for
        all-zero-FLOP batches (data-only kinds must still report where
        their items went)."""
        total = sum(it.flops for it in items)
        if total == 0:
            return len(cpu_items) / len(items) if len(items) else 0.0
        return sum(it.flops for it in cpu_items) / total

    # -- split search ----------------------------------------------------------

    def _cpu_seconds(self, items: list[WorkItem]) -> float:
        """Reference: scaled CPU time of ``items``, aggregated from scratch
        (what :meth:`_best_cut`'s running prefixes must reproduce)."""
        if not items:
            return 0.0
        return (
            self.cpu_kernel.batch_timing(
                BatchStats.of(items), self.cpu_threads
            ).seconds
            * self.cpu_time_scale
        )

    def _gpu_seconds(self, items: list[WorkItem], transfer_estimator=None) -> float:
        """Reference: scaled GPU time of ``items``, aggregated from scratch
        (what :meth:`_best_cut`'s running suffixes must reproduce)."""
        if not items:
            return 0.0
        stats = BatchStats.of(items)
        transfer = transfer_estimator(stats) if transfer_estimator is not None else 0.0
        return (
            self.gpu_kernel.batch_timing(stats, self.gpu_streams).seconds
            + transfer
        ) * self.gpu_time_scale

    def _best_cut(
        self, items: list[WorkItem], transfer_estimator=None,
        key_sets: dict[int, frozenset] | None = None,
    ) -> int:
        """Cut index minimising ``max(cpu(items[:cut]), gpu(items[cut:]))``.

        This realises the paper's optimal overlap against the *actual*
        batch timing functions rather than the linear ``k = n/(m+n)``
        idealisation — in particular it accounts for CPU thread
        starvation when the CPU's share would be only a few items (one
        CPU task is single-threaded), in which case it keeps the CPU
        share small or empty.  All cuts are evaluated exactly, using
        prefix/suffix aggregate statistics built in one pass each.
        """
        n = len(items)
        prefixes = self._running_stats(items, key_sets)
        suffixes = self._running_stats(list(reversed(items)), key_sets)
        best_cut = 0
        best_time = None
        for cut in range(n + 1):
            cpu_t = (
                self.cpu_share_seconds(prefixes[cut]) * self.cpu_time_scale
                if cut
                else 0.0
            )
            gpu_t = (
                self.gpu_share_seconds(suffixes[n - cut], transfer_estimator)
                * self.gpu_time_scale
                if cut < n
                else 0.0
            )
            t = max(cpu_t, gpu_t)
            if best_time is None or t < best_time:
                best_time = t
                best_cut = cut
        return best_cut

    @staticmethod
    def _running_stats(
        items: list[WorkItem], key_sets: dict[int, frozenset] | None = None
    ) -> list[BatchStats]:
        """Cost fields of every prefix of ``items`` (length n+1, entry 0
        empty), built in one pass.  ``block_keys`` stays empty: the cost
        models read only ``unique_block_bytes``, so one :class:`BlockFold`
        serves every prefix."""
        out = [BatchStats()]
        acc = BatchStats()
        blocks = BlockFold(key_sets)
        for it in items:
            acc = BatchStats(
                n_items=acc.n_items + 1,
                flops=acc.flops + it.flops,
                input_bytes=acc.input_bytes + it.input_bytes,
                output_bytes=acc.output_bytes + it.output_bytes,
                steps=acc.steps + it.steps,
                step_rows=max(acc.step_rows, it.step_rows),
                step_q=max(acc.step_q, it.step_q),
                unique_block_bytes=acc.unique_block_bytes + blocks.add(it),
            )
            out.append(acc)
        return out


class AdaptiveDispatcher(HybridDispatcher):
    """A hybrid dispatcher that recalibrates its cost model online.

    The cost-model estimates ``m`` and ``n`` are multiplied by
    calibration scales that an EWMA of *measured* simulated batch
    durations keeps pulling toward reality:

        ``scale <- (1 - alpha) * scale + alpha * measured / estimated``

    where ``estimated`` is the raw (unscaled) cost-model prediction for
    the share actually dispatched and ``measured`` is the simulated
    service time it actually took (PCIe transfers included on the GPU
    side).  This is the hybrid-execution feedback loop of Rengasamy &
    Vadhiyar: a miscalibrated model (wrong CPU flops rate, stale
    transfer estimate, cache effects the static model cannot see)
    converges within a few batches instead of skewing every split.

    Args:
        cpu_scale / gpu_scale: initial calibration (1.0 = trust the
            model; 2.0 = "the CPU is twice as slow as the model says").
        ewma_alpha: feedback smoothing factor in (0, 1]; higher adapts
            faster but follows noise.
    """

    def __init__(
        self,
        cpu_kernel: ComputeKernel,
        gpu_kernel: ComputeKernel,
        *,
        cpu_threads: int,
        gpu_streams: int,
        cpu_scale: float = 1.0,
        gpu_scale: float = 1.0,
        ewma_alpha: float = 0.5,
    ):
        if cpu_scale <= 0 or gpu_scale <= 0:
            raise RuntimeConfigError(
                f"calibration scales must be positive: cpu={cpu_scale}, "
                f"gpu={gpu_scale}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise RuntimeConfigError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        super().__init__(
            cpu_kernel,
            gpu_kernel,
            cpu_threads=cpu_threads,
            gpu_streams=gpu_streams,
            mode="hybrid",
        )
        self.cpu_time_scale = cpu_scale
        self.gpu_time_scale = gpu_scale
        self.ewma_alpha = ewma_alpha
        #: (cpu_scale, gpu_scale) after each observation, oldest first
        self.history: list[tuple[float, float]] = []

    def observe(
        self,
        *,
        est_cpu_seconds: float = 0.0,
        measured_cpu_seconds: float = 0.0,
        est_gpu_seconds: float = 0.0,
        measured_gpu_seconds: float = 0.0,
    ) -> None:
        """Feed one batch's raw estimates and measured durations back.

        Estimates must be the *unscaled* cost-model predictions for the
        shares that actually ran; shares that did not run (zero
        estimate) leave their scale untouched.
        """
        a = self.ewma_alpha
        if est_cpu_seconds > 0 and measured_cpu_seconds > 0:
            ratio = measured_cpu_seconds / est_cpu_seconds
            self.cpu_time_scale = (1 - a) * self.cpu_time_scale + a * ratio
        if est_gpu_seconds > 0 and measured_gpu_seconds > 0:
            ratio = measured_gpu_seconds / est_gpu_seconds
            self.gpu_time_scale = (1 - a) * self.gpu_time_scale + a * ratio
        self.history.append((self.cpu_time_scale, self.gpu_time_scale))
