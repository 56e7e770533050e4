"""Compute kernels: real numerics plus a hardware cost.

Each kernel executes the same mathematics — Formula 1 as a chain of
``mtxmq`` contractions — but models a different execution strategy:

- :class:`repro.kernels.cpu_kernel.CpuMtxmKernel` — the hand-tuned CPU
  loop, optionally with rank reduction (the paper's Section II-D);
- :class:`repro.kernels.custom_gpu.CustomGpuKernel` — the paper's fused
  ``cu_mtxmq`` CUDA kernel (2-3 SMs per instance, inter-block barrier,
  streams);
- :class:`repro.kernels.cublas_gpu.CublasKernel` — the cuBLAS-style
  per-step GEMM baseline.

All three run one evaluator (:func:`repro.kernels.base.evaluate_formula`),
so without rank reduction their numeric outputs are bit-for-bit
identical (tested); only their simulated durations differ.  The
write-once device cache (:class:`repro.kernels.gpu_cache.GpuBlockCache`)
decides how many operator-block bytes each batch actually ships over
PCIe.
"""

from repro.kernels.base import ComputeKernel, FormulaPayload, KernelTiming
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.custom_gpu import CustomGpuKernel, sm_per_instance_for
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.gpu_cache import GpuBlockCache

__all__ = [
    "ComputeKernel",
    "FormulaPayload",
    "KernelTiming",
    "CpuMtxmKernel",
    "CustomGpuKernel",
    "sm_per_instance_for",
    "CublasKernel",
    "GpuBlockCache",
]
