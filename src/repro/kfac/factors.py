"""Kronecker factor construction (the paper's *curvature work*).

Given per-example layer inputs ``a_i`` and output-gradient error signals
``e_i`` for a micro-batch, the factors are

    U_A = 1/sqrt(|B|) [a_1 ... a_|B|],   A = U_A U_A^T
    U_B = 1/sqrt(|B|) [e_1 ... e_|B|],   B = U_B U_B^T

— one matmul per factor, exactly the paper's "2L torch.matmul calls".
For sequence models every token position is treated as an example (the
standard practice for K-FAC on transformers; each row of the flattened
``(batch*seq, features)`` activations is one ``a_i``).

Since training losses are mini-batch *means*, the captured output gradient
rows equal ``(1/N) * dL_i/ds_i``; the empirical-Fisher error signal is the
per-example gradient, so rows are rescaled by ``N`` before forming ``B``.

Micro-batch accumulation is a *single* concatenated matmul: the mini-batch
factor over ``N_micro`` micro-batches equals the factor of the row
concatenation, so there is no per-micro-batch loop and no float64
accumulator round trip (:meth:`repro.kfac.KFACLayerState.update_curvature`
is that kernel; :func:`compute_factor_from_rows` is the one-batch
reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def compute_factor_from_rows(rows: np.ndarray, include_bias: bool = False) -> np.ndarray:
    """Compute ``(1/N) rows^T rows`` — a single Kronecker factor.

    Parameters
    ----------
    rows:
        ``(N, d)`` matrix whose rows are the per-example vectors.
    include_bias:
        Append a constant-1 column first (homogeneous coordinates), which
        folds the layer bias into the ``A`` factor.

    Returns
    -------
    ``(d, d)`` (or ``(d+1, d+1)``) symmetric positive semidefinite matrix.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"expected 2-D rows, got shape {rows.shape}")
    if include_bias:
        ones = np.ones((rows.shape[0], 1), dtype=rows.dtype)
        rows = np.concatenate([rows, ones], axis=1)
    n = max(rows.shape[0], 1)
    return (rows.T @ rows) / np.float32(n)


@dataclass
class KroneckerFactor:
    """A running estimate of one Kronecker factor with exponential averaging.

    Parameters
    ----------
    dim:
        Side length of the factor matrix.
    stat_decay:
        EMA coefficient; ``value <- decay * value + (1-decay) * batch_factor``.
        ``0`` replaces the estimate each refresh (the paper's per-refresh
        semantics); KAISA-style implementations use 0.95.
    """

    dim: int
    stat_decay: float = 0.0
    value: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    updates: int = 0

    def __post_init__(self) -> None:
        if self.value is None:
            self.value = np.zeros((self.dim, self.dim), dtype=np.float32)

    def update(self, batch_factor: np.ndarray, copy: bool = True) -> None:
        """Fold one micro-batch factor estimate into the running value.

        ``copy=False`` lets a caller that hands over ownership of a float32
        ``batch_factor`` (:meth:`KFACLayerState.update_curvature`, whose
        factors are freshly allocated) skip the defensive copy.
        """
        if batch_factor.shape != (self.dim, self.dim):
            raise ValueError(
                f"factor shape {batch_factor.shape} != ({self.dim}, {self.dim})"
            )
        if self.updates == 0 or self.stat_decay == 0.0:
            self.value = batch_factor.astype(np.float32, copy=copy)
        else:
            d = self.stat_decay
            self.value = d * self.value + (1.0 - d) * batch_factor.astype(np.float32)
        self.updates += 1
