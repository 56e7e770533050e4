"""Applications: the workloads the paper evaluates.

- :mod:`repro.apps.workloads` — synthetic unbalanced trees and the task
  streams of one ``Apply`` over them (cost-faithful, payload-free; used
  for the cluster-scale experiments where the paper's exact chemistry
  inputs are unavailable);
- :mod:`repro.apps.coulomb` — the 3-D *Coulomb* application (Tables
  I-V), both a real small-scale MRA instance for validation and
  paper-parameter synthetic instances;
- :mod:`repro.apps.tdse` — the 4-D Time-Dependent Schrodinger Equation
  application (Table VI): k=14, 542,113 tasks, cuBLAS on the GPU, rank
  reduction on the CPU.
"""

from repro.apps.workloads import (
    ClusterTask,
    SyntheticApplyWorkload,
    synthetic_tree_keys,
)
from repro.apps.coulomb import CoulombApplication
from repro.apps.tdse import TdseApplication

__all__ = [
    "ClusterTask",
    "SyntheticApplyWorkload",
    "synthetic_tree_keys",
    "CoulombApplication",
    "TdseApplication",
]
