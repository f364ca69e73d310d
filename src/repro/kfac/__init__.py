"""K-FAC: Kronecker-Factored Approximate Curvature (Martens & Grosse 2015).

This package implements the paper's §2.3 in full:

* **Curvature work** — accumulating the Kronecker factors
  ``A_l = U_A U_A^T`` (from layer inputs) and ``B_l = U_B U_B^T`` (from
  output-gradient error signals) per linear layer.
* **Inversion work** — damped Cholesky inversion of each factor.
* **Precondition work** — ``B_l^{-1} G_l A_l^{-1}`` applied to fresh
  gradients, possibly with stale inverses (§2.3.1).

plus the distributed execution schemes of §2.3.2 (data+inversion-parallel
K-FAC, CPU offloading) in emulated form, which the pipeline benchmarks use
as baselines.
"""

from repro.kfac.factors import KroneckerFactor, compute_factor_from_rows
from repro.kfac.inverse import (
    batched_damped_cholesky_inverse,
    batched_pair_inverses,
    damped_cholesky_inverse,
    pi_damping,
)
from repro.kfac.block_diagonal import BlockDiagonalFactor, block_diag_inversion_flops
from repro.kfac.layer import KFACLayerState
from repro.kfac.kfac import KFAC
from repro.kfac.distributed import (
    DataInversionParallelKFAC,
    CPUOffloadKFAC,
    round_robin_layer_assignment,
)

__all__ = [
    "KroneckerFactor",
    "compute_factor_from_rows",
    "damped_cholesky_inverse",
    "batched_damped_cholesky_inverse",
    "pi_damping",
    "batched_pair_inverses",
    "BlockDiagonalFactor",
    "block_diag_inversion_flops",
    "KFACLayerState",
    "KFAC",
    "DataInversionParallelKFAC",
    "CPUOffloadKFAC",
    "round_robin_layer_assignment",
]
