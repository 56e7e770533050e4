"""End-to-end: the real Coulomb problem through the hybrid runtime.

This is the full paper pipeline on real numbers: adaptive projection ->
nonstandard form -> batched preprocess/compute/postprocess through the
simulated hybrid node -> sum-down -> point evaluation against the
analytic potential.
"""

import pytest

from repro.apps.coulomb import CoulombApplication
from repro.operators.apply_batched import BatchedApply
from tests.conftest import make_runtime


@pytest.fixture(scope="module")
def coulomb_problem():
    return CoulombApplication.real_instance(k=5, thresh=2e-3, eps=1e-3, alpha=150.0)


@pytest.fixture(scope="module")
def mode_results(coulomb_problem):
    """One Apply per execution mode, shared by every test below."""
    density, operator, _exact = coulomb_problem
    return {
        mode: BatchedApply(operator, make_runtime(mode)).apply(density)
        for mode in ("cpu", "gpu", "hybrid")
    }


@pytest.fixture(scope="module")
def hybrid_result(mode_results):
    return mode_results["hybrid"]


def test_hybrid_apply_matches_analytic_potential(coulomb_problem, hybrid_result):
    _density, _operator, exact = coulomb_problem
    v = hybrid_result.function
    for r in (0.05, 0.1, 0.2, 0.3):
        got = v.eval((0.5 + r, 0.5, 0.5))
        want = exact(r)
        assert abs(got - want) / want < 5e-3, (r, got, want)


def test_hybrid_used_both_devices(hybrid_result):
    tl = hybrid_result.timeline
    assert tl.n_cpu_items > 0
    assert tl.n_gpu_items > 0
    assert tl.gpu_busy > 0
    assert tl.cpu_compute_busy > 0


def test_result_tree_is_structurally_valid(hybrid_result):
    hybrid_result.function.tree.check_structure()


def test_result_survives_compress_truncate_cycle(coulomb_problem, hybrid_result):
    _density, _op, exact = coulomb_problem
    v = hybrid_result.function.copy()
    v.compress()
    v.truncate()
    v.reconstruct()
    r = 0.15
    assert abs(v.eval((0.5 + r, 0.5, 0.5)) - exact(r)) / exact(r) < 1e-2


def test_three_modes_agree_numerically(mode_results):
    ref = mode_results["cpu"].function
    for mode in ("gpu", "hybrid"):
        assert (ref - mode_results[mode].function).norm2() < 1e-10


def test_simulated_times_ordered_sensibly(mode_results):
    times = {
        mode: result.timeline.total_seconds
        for mode, result in mode_results.items()
    }
    assert times["hybrid"] <= 1.15 * min(times["cpu"], times["gpu"])
