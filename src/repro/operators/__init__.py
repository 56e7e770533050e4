"""The MADNESS ``Apply`` operator and its ingredients.

``Apply`` computes an integral (Green's-function) operator on a
multiresolution tree.  The kernel is expanded as a separated sum of
Gaussians (:mod:`repro.operators.gaussian_fit`), each of which factors
into one small matrix per dimension (:mod:`repro.operators.blocks`) —
the ``h^{(mu,i)}`` of the paper's Formula 1.  The reference CPU control
flow (paper Algorithms 1-2) lives in
:class:`repro.operators.convolution.GaussianConvolution`; the hybrid
batched control flow (Algorithms 3-6) in
:mod:`repro.operators.apply_batched`.
"""

from repro.operators.gaussian_fit import GaussianExpansion, fit_inverse_r
from repro.operators.blocks import (
    gaussian_block_1d,
    gaussian_blocks_1d,
    ns_block_from_children,
)
from repro.operators.displacements import displacement_ring, displacements_up_to
from repro.operators.cache import OperatorBlockCache
from repro.operators.convolution import (
    ApplyStats,
    CoulombOperator,
    GaussianConvolution,
    sum_down_ns,
)

__all__ = [
    "ApplyStats",
    "sum_down_ns",
    "GaussianExpansion",
    "fit_inverse_r",
    "gaussian_block_1d",
    "gaussian_blocks_1d",
    "ns_block_from_children",
    "displacement_ring",
    "displacements_up_to",
    "OperatorBlockCache",
    "CoulombOperator",
    "GaussianConvolution",
]
