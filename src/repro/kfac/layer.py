"""Per-layer K-FAC state: factors, inverses, and staleness bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kfac.factors import KroneckerFactor
from repro.kfac.inverse import batched_pair_inverses


@dataclass
class KFACLayerState:
    """Curvature state for one linear layer.

    Tracks the Kronecker factors ``A`` (inputs, possibly bias-augmented) and
    ``B`` (output-grad errors), their damped inverses, and how stale the
    inverses are — the paper's §3.1 uses previously-computed inverses for
    preconditioning whenever fresh ones are not yet ready.
    """

    name: str
    din: int
    dout: int
    include_bias: bool = True
    stat_decay: float = 0.0
    a_factor: KroneckerFactor = field(init=False)
    b_factor: KroneckerFactor = field(init=False)
    a_inv: np.ndarray | None = None
    b_inv: np.ndarray | None = None
    #: Steps since the inverses were last refreshed (-1 = never computed).
    inverse_staleness: int = -1

    def __post_init__(self) -> None:
        a_dim = self.din + (1 if self.include_bias else 0)
        self.a_factor = KroneckerFactor(a_dim, stat_decay=self.stat_decay)
        self.b_factor = KroneckerFactor(self.dout, stat_decay=self.stat_decay)

    # -- curvature work ---------------------------------------------------------

    def update_curvature(
        self, input_batches: list[np.ndarray], grad_batches: list[np.ndarray],
        loss_scale: float = 1.0,
    ) -> None:
        """Refresh A and B from captured micro-batch rows.

        This is the one curvature kernel; :class:`~repro.kfac.KFAC` runs
        it layer by layer. Each factor is one ``rows.T @ rows`` matmul
        over the micro-batch rows concatenated (the mini-batch factor is
        the factor of the row concatenation), which numpy forms with
        ``syrk``, so the factor is exactly symmetric. The input rows are
        copied into one owned float32 buffer whose homogeneous column,
        when ``include_bias``, is written once. The loss scale is folded
        into the B factor as ``loss_scale**2`` rather than by rescaling
        every gradient row. Both factors are fresh arrays, so a factor
        array a caller holds never changes.

        ``loss_scale`` converts mean-loss output gradients back to
        per-example error signals (multiply by the number of rows the mean
        was taken over); pass 1.0 when the loss is a sum.
        """
        if not input_batches or not grad_batches:
            raise ValueError(f"layer {self.name}: no captured rows")
        n_in = sum(b.shape[0] for b in input_batches)
        x = np.empty((n_in, self.a_factor.dim), dtype=np.float32)
        if self.include_bias:
            x[:, self.din] = 1.0
        np.concatenate(input_batches, out=x[:, :self.din])
        a = x.T @ x
        a /= np.float32(max(n_in, 1))
        g = grad_batches[0] if len(grad_batches) == 1 else np.concatenate(grad_batches)
        b = g.T @ g
        b /= np.float32(max(g.shape[0], 1))
        b *= np.float32(loss_scale)
        b *= np.float32(loss_scale)
        self.a_factor.update(a, copy=False)
        self.b_factor.update(b, copy=False)

    # -- inversion work -----------------------------------------------------------

    def update_inverses(self, damping: float, use_pi: bool = True) -> None:
        """Recompute the damped inverses from the current factors.

        Runs :func:`batched_pair_inverses` on this layer's one pair, so a
        layer inverted alone gets exactly the inverses :class:`KFAC`
        installs for it from a whole-model batch.
        """
        if self.a_factor.updates == 0 or self.b_factor.updates == 0:
            raise RuntimeError(f"layer {self.name}: inversion before any curvature")
        pair = (self.a_factor.value, self.b_factor.value)
        self.install_inverses(*batched_pair_inverses([pair], damping, use_pi)[0])

    def install_inverses(self, a_inv: np.ndarray, b_inv: np.ndarray) -> None:
        """Install inverses computed from this layer's factors elsewhere."""
        self.a_inv = a_inv
        self.b_inv = b_inv
        self.inverse_staleness = 0

    def tick_staleness(self) -> None:
        """Mark one optimization step elapsed since the last inverse refresh."""
        if self.inverse_staleness >= 0:
            self.inverse_staleness += 1

    @property
    def ready(self) -> bool:
        """Whether preconditioning can run (inverses exist, fresh or stale)."""
        return self.a_inv is not None and self.b_inv is not None

    # -- precondition work -----------------------------------------------------------

    def precondition(
        self, weight_grad: np.ndarray, bias_grad: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Apply ``B^{-1} G A^{-1}`` to a (dout, din) weight gradient.

        The gradient is copied into one float32 homogeneous-coordinate
        buffer; when ``include_bias`` its last column is the bias gradient,
        or zero when there is none (the bias result is then ``None``). The
        float32 results are views into the product.
        """
        if not self.ready:
            raise RuntimeError(f"layer {self.name}: precondition before any inversion")
        if weight_grad.shape != (self.dout, self.din):
            raise ValueError(
                f"layer {self.name}: grad shape {weight_grad.shape} != "
                f"({self.dout}, {self.din})"
            )
        g = np.empty((self.dout, self.a_inv.shape[0]), dtype=np.float32)
        g[:, :self.din] = weight_grad
        if not self.include_bias:
            return self.b_inv @ g @ self.a_inv, bias_grad
        g[:, self.din] = 0.0 if bias_grad is None else bias_grad
        nat = self.b_inv @ g @ self.a_inv
        return nat[:, :self.din], None if bias_grad is None else nat[:, self.din]
