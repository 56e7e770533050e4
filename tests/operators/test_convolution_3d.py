"""3-D Coulomb validation: V = rho * 1/r must match erf(sqrt(a) r)/r."""

import pytest

from repro.apps.coulomb import CoulombApplication
from repro.operators.convolution import ApplyStats


@pytest.fixture(scope="module")
def coulomb_result():
    density, operator, exact = CoulombApplication.real_instance(
        k=6, thresh=1e-3, eps=1e-4, alpha=300.0
    )
    stats = ApplyStats()
    potential = operator.apply(density, stats=stats)
    return density, operator, potential, exact, stats


def test_potential_matches_erf(coulomb_result):
    _rho, _op, v, exact, _stats = coulomb_result
    for r in (0.02, 0.05, 0.1, 0.2, 0.3):
        got = v.eval((0.5 + r, 0.5, 0.5))
        want = exact(r)
        assert abs(got - want) / want < 1e-3, (r, got, want)


def test_potential_radially_symmetric(coulomb_result):
    _rho, _op, v, _exact, _stats = coulomb_result
    r = 0.15
    vals = [
        v.eval((0.5 + r, 0.5, 0.5)),
        v.eval((0.5, 0.5 + r, 0.5)),
        v.eval((0.5, 0.5, 0.5 - r)),
    ]
    assert max(vals) - min(vals) < 5e-3 * max(vals)


def test_far_field_is_total_charge_over_r(coulomb_result):
    """The density integrates to 1, so V ~ 1/r far from the center."""
    _rho, _op, v, _exact, _stats = coulomb_result
    r = 0.35
    assert abs(v.eval((0.5 + r, 0.5, 0.5)) - 1.0 / r) / (1.0 / r) < 5e-3


def test_task_counts_reported(coulomb_result):
    rho, _op, _v, _exact, stats = coulomb_result
    assert stats.source_nodes == rho.tree.size()
    assert stats.tasks > stats.source_nodes  # several displacements each
    assert stats.screened_displacements > 0  # screening really happens


def test_screening_reduces_mu_work(coulomb_result):
    _rho, op, _v, _exact, stats = coulomb_result
    # without screening every task would run the full rank
    assert stats.mu_applications < stats.tasks * op.expansion.rank


def test_displacement_lists_shrink_with_level(coulomb_result):
    """The subtracted (wavelet-coupling) norms decay fast with distance,
    so fine levels keep only near displacements."""
    _rho, op, _v, _exact, _stats = coulomb_result
    lengths = {
        level: len(op.level_displacements(level)) for level in (1, 3)
    }
    assert lengths[3] <= lengths[1] * 27  # sane bound
    # and every list is much smaller than the unscreened cube
    full = (2 * op.max_radius + 1) ** 3
    assert all(n < full for n in lengths.values())
