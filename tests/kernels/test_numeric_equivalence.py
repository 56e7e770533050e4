"""All three kernels must produce identical numbers — only timing differs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cpu_model import CpuModel
from repro.hardware.gpu_model import GpuModel
from repro.hardware.specs import TITAN_NODE
from repro.kernels.base import FormulaPayload, evaluate_formula
from repro.kernels.cpu_kernel import CpuMtxmKernel
from repro.kernels.cublas_gpu import CublasKernel
from repro.kernels.custom_gpu import CustomGpuKernel
from repro.runtime.task import TaskKind, WorkItem
from repro.tensor.flops import flop_counter, formula1_flops


def payload_item(seed: int, dim: int = 2, q: int = 6, rank: int = 3) -> WorkItem:
    rng = np.random.default_rng(seed)
    payload = FormulaPayload(
        s=rng.standard_normal((q,) * dim),
        factors=[
            tuple(rng.standard_normal((q, q)) for _ in range(dim))
            for _ in range(rank)
        ],
        coeffs=rng.standard_normal(rank),
    )
    return WorkItem(kind=TaskKind("t", 0), payload=payload)


def exact_kernels():
    """The kernels that run the shared evaluator (no rank reduction)."""
    return [
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)),
        CustomGpuKernel(GpuModel(TITAN_NODE.gpu)),
        CublasKernel(GpuModel(TITAN_NODE.gpu)),
    ]


def all_kernels():
    return exact_kernels() + [
        CpuMtxmKernel(CpuModel(TITAN_NODE.cpu), rank_reduction=True,
                      reduction_tol=1e-14),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kernels_agree_with_reference(dim):
    item = payload_item(7, dim=dim)
    reference = item.payload.reference_result()
    for kernel in all_kernels():
        out = kernel.run_item(item)
        assert np.allclose(out, reference, atol=1e-10), kernel.name


def test_fast_evaluator_matches_reference():
    item = payload_item(11, dim=3, q=5, rank=4)
    assert np.allclose(
        evaluate_formula(item.payload), item.payload.reference_result(), atol=1e-11
    )


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(2, 6), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_equivalence_property(seed, dim, q, rank):
    item = payload_item(seed, dim=dim, q=q, rank=rank)
    reference = item.payload.reference_result()
    cpu, custom, cublas = (kernel.run_item(item) for kernel in exact_kernels())
    assert np.array_equal(cpu, custom)
    assert np.array_equal(cpu, cublas)
    assert np.allclose(cpu, reference, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_kernels_record_formula1_flops(dim):
    """Every kernel counts the same FLOPs as ``formula1_flops``."""
    item = payload_item(5, dim=dim, q=6, rank=3)
    for kernel in exact_kernels():
        with flop_counter() as counter:
            kernel.run_item(item)
        assert counter.by_label == {"formula1": formula1_flops(dim, 6, 3)}, kernel.name
        assert counter.flops == formula1_flops(dim, 6, 3), kernel.name


def test_rank_reduced_cpu_close_but_cheaper():
    """With decaying factors, the rank-reduced path matches within
    tolerance while multiplying less."""
    rng = np.random.default_rng(3)
    q, dim, rank = 10, 2, 3
    scale = 0.2 ** np.arange(q)
    factors = [
        tuple(rng.standard_normal((q, q)) * np.outer(scale, scale) for _ in range(dim))
        for _ in range(rank)
    ]
    payload = FormulaPayload(
        s=rng.standard_normal((q,) * dim),
        factors=factors,
        coeffs=np.ones(rank),
    )
    item = WorkItem(kind=TaskKind("t", 0), payload=payload)
    full = CpuMtxmKernel(CpuModel(TITAN_NODE.cpu)).run_item(item)
    reduced = CpuMtxmKernel(
        CpuModel(TITAN_NODE.cpu), rank_reduction=True, reduction_tol=1e-8
    ).run_item(item)
    assert np.allclose(full, reduced, atol=1e-5)


def test_cost_only_items_return_none():
    item = WorkItem(kind=TaskKind("t", 0), flops=100)
    for kernel in all_kernels():
        assert kernel.run_item(item) is None


def test_wrong_payload_type_rejected():
    item = WorkItem(kind=TaskKind("t", 0), payload="garbage")
    for kernel in all_kernels():
        with pytest.raises(TypeError):
            kernel.run_item(item)
