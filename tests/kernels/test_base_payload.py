"""FormulaPayload and KernelTiming edge cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TensorShapeError
from repro.kernels.base import FormulaPayload, KernelTiming, evaluate_formula


def test_payload_validates_rank_consistency():
    with pytest.raises(TensorShapeError):
        FormulaPayload(
            s=np.zeros((3, 3)),
            factors=[(np.eye(3), np.eye(3))],
            coeffs=np.ones(2),
        )


def test_payload_properties():
    p = FormulaPayload(
        s=np.zeros((4, 4, 4)),
        factors=[tuple(np.eye(4) for _ in range(3))],
        coeffs=np.ones(1),
    )
    assert p.rank == 1
    assert p.dim == 3


def test_evaluate_formula_zero_rank():
    p = FormulaPayload(s=np.ones((3, 3)), factors=[], coeffs=np.zeros(0))
    out = evaluate_formula(p)
    assert np.all(out == 0.0)
    assert out.shape == (3, 3)


def test_evaluate_formula_identity_factors():
    rng = np.random.default_rng(0)
    s = rng.standard_normal((5, 5))
    p = FormulaPayload(
        s=s, factors=[(np.eye(5), np.eye(5))], coeffs=np.array([2.0])
    )
    assert np.allclose(evaluate_formula(p), 2.0 * s)


def test_kernel_timing_gflops():
    t = KernelTiming(seconds=0.5, flops=10**9, launches=1)
    assert t.gflops() == pytest.approx(2.0)
    assert KernelTiming(seconds=0.0, flops=1, launches=0).gflops() == 0.0


@st.composite
def payloads(draw):
    """Random payloads over d=1..4, q=1..12 (at most 8 at d=4), M=0..30."""
    dim = draw(st.integers(1, 4))
    q = draw(st.integers(1, 8 if dim == 4 else 12))
    rank = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return FormulaPayload(
        s=rng.standard_normal((q,) * dim),
        factors=[
            tuple(rng.standard_normal((q, q)) for _ in range(dim))
            for _ in range(rank)
        ],
        coeffs=rng.standard_normal(rank),
    )


@given(payloads())
@settings(max_examples=100, deadline=None)
def test_evaluate_formula_matches_reference(payload):
    """The matmul chain against the per-term ``mtxmq`` oracle."""
    reference = payload.reference_result()
    out = evaluate_formula(payload)
    assert out.shape == payload.s.shape
    assert np.max(np.abs(out - reference)) <= 1e-12 * np.max(np.abs(reference))
