"""The K-FAC optimizer: curvature, inversion, and preconditioning orchestration.

Usage mirrors the paper's training flow::

    layers = model.encoder_linear_layers()
    inner  = NVLAMB(model.parameters(), lr=6e-3)
    kfac   = KFAC(layers, inner, damping=0.03,
                  curvature_interval=10, inverse_interval=10)

    loss, _ = model.loss(...)
    loss.backward()
    kfac.step()          # precondition + inner optimizer update

Per §4 of the paper, K-FAC is applied to all fully-connected layers except
the vocabulary classification head (``max_dout`` filters it out when the
head is expressed as a Linear); the inner optimizer updates every
parameter, preconditioned or not.

Curvature and preconditioning run per layer; inversion runs as
*batched* kernels over dimension groups:

* **curvature** — each layer's :meth:`KFACLayerState.update_curvature`
  forms its factors as one concatenated ``rows.T @ rows`` each. The
  matmuls are the whole cost, so stacking same-shape layers into one
  batched matmul gains nothing, and its workspaces would outlive the
  refresh.
* **inversion** — factors are grouped by dimension and inverted as one
  float32 Cholesky batch per group, each layer's damping split by the
  Martens-Grosse pi rule (:func:`~repro.kfac.inverse.batched_pair_inverses`,
  which every K-FAC driver, serial or emulated-distributed, runs).
* **precondition** — each ready layer's :meth:`KFACLayerState.precondition`
  applies ``B^{-1} G A^{-1}`` with the inverses the state holds, fresh or
  stale. The two gemms are the whole cost, so stacking layers gains
  nothing (``BENCH_kfac.json`` ``precondition_ratio``).
"""

from __future__ import annotations

from typing import Iterable

from repro.kfac.inverse import batched_pair_inverses
from repro.kfac.layer import KFACLayerState
from repro.nn.linear import Linear
from repro.optim.base import Optimizer


class KFAC:
    """K-FAC preconditioner wrapped around an inner first-order optimizer.

    Parameters
    ----------
    named_layers:
        ``(name, Linear)`` pairs to precondition. Capture is enabled on them.
    inner:
        The optimizer that consumes the (preconditioned) gradients.
    damping:
        Overall Tikhonov damping for factor inversion.
    curvature_interval, inverse_interval:
        Refresh periods in optimization steps (paper §2.3.1: e.g. 10 and 100
        in KAISA; PipeFisher refreshes every few steps "for free").
    stat_decay:
        Exponential moving average for factors (0 = replace each refresh).
    max_dout:
        Skip layers whose output dimension exceeds this (the vocab-head rule
        of §4: d_out = 30,522 would make B_L too large to invert).
    use_pi:
        Use Martens-Grosse pi-corrected damping split.
    """

    def __init__(
        self,
        named_layers: Iterable[tuple[str, Linear]],
        inner: Optimizer,
        damping: float = 0.03,
        curvature_interval: int = 1,
        inverse_interval: int = 1,
        stat_decay: float = 0.0,
        max_dout: int | None = None,
        use_pi: bool = True,
    ) -> None:
        if damping <= 0:
            raise ValueError(f"damping must be positive, got {damping}")
        if curvature_interval < 1 or inverse_interval < 1:
            raise ValueError("refresh intervals must be >= 1")
        self.inner = inner
        self.damping = damping
        self.curvature_interval = curvature_interval
        self.inverse_interval = inverse_interval
        self.use_pi = use_pi
        self.step_count = 0

        self.layers: list[tuple[Linear, KFACLayerState]] = []
        skipped: list[str] = []
        for name, layer in named_layers:
            if not isinstance(layer, Linear):
                raise TypeError(f"{name} is not a Linear layer")
            if max_dout is not None and layer.out_features > max_dout:
                skipped.append(name)
                continue
            layer.kfac_capture = True
            state = KFACLayerState(
                name=name,
                din=layer.in_features,
                dout=layer.out_features,
                include_bias=layer.bias is not None,
                stat_decay=stat_decay,
            )
            self.layers.append((layer, state))
        self.skipped_layers = skipped
        if not self.layers:
            raise ValueError("no layers eligible for K-FAC")

    # -- individual work types (the paper's three K-FAC works) --------------------

    def update_curvature(self) -> None:
        """Curvature work: refresh A_l, B_l from rows captured since last pop.

        Every layer's captures are popped and checked first, so a layer
        without rows raises before any factor changes; then each layer's
        :meth:`KFACLayerState.update_curvature` forms its factors, with the
        loss scale its gradient row count (the training losses are means).
        """
        captures = []
        for layer, state in self.layers:
            inputs, grads = layer.kfac_pop()
            if not inputs or not grads:
                raise RuntimeError(
                    f"layer {state.name}: no captured activations/gradients; "
                    "run forward+backward before update_curvature()"
                )
            captures.append((state, inputs, grads))
        for state, inputs, grads in captures:
            n_g = sum(g.shape[0] for g in grads)
            state.update_curvature(inputs, grads, loss_scale=float(n_g))

    def discard_captures(self) -> None:
        """Drop captured rows without updating factors (non-refresh steps).

        Clears the capture buffers in place — the steady-state loop
        allocates no new lists.
        """
        for layer, _ in self.layers:
            layer.kfac_clear()

    def update_inverses(self) -> None:
        """Inversion work: recompute damped inverses for every layer.

        All factors are inverted through :func:`batched_pair_inverses`:
        grouped by dimension, one float32 Cholesky batch per group, with
        each layer's pi-damping split.
        """
        for _, state in self.layers:
            if state.a_factor.updates == 0 or state.b_factor.updates == 0:
                raise RuntimeError(
                    f"layer {state.name}: inversion before any curvature"
                )
        pairs = [
            (state.a_factor.value, state.b_factor.value)
            for _, state in self.layers
        ]
        inverses = batched_pair_inverses(pairs, self.damping, use_pi=self.use_pi)
        for (_, state), (a_inv, b_inv) in zip(self.layers, inverses):
            state.install_inverses(a_inv, b_inv)

    def precondition(self) -> None:
        """Precondition work: grad <- B^{-1} G A^{-1} in place, where ready.

        A layer without inverses keeps its raw gradient (paper §3.1: until
        the first inverses exist); afterwards the state's inverses are used,
        whichever code installed them.
        """
        for layer, state in self.layers:
            if not state.ready or layer.weight.grad is None:
                continue
            bias_grad = layer.bias.grad if layer.bias is not None else None
            layer.weight.grad, nat_bias = state.precondition(layer.weight.grad, bias_grad)
            if nat_bias is not None:
                layer.bias.grad = nat_bias

    # -- main entry point ------------------------------------------------------------

    def step(self) -> None:
        """One optimization step: refresh (on schedule), precondition, update."""
        refresh_curv = self.step_count % self.curvature_interval == 0
        refresh_inv = self.step_count % self.inverse_interval == 0
        self.step_count += 1

        if refresh_curv:
            self.update_curvature()
        else:
            self.discard_captures()
        if refresh_inv:
            self.update_inverses()
        self.precondition()
        for _, state in self.layers:
            state.tick_staleness()
        self.inner.step()

    def zero_grad(self) -> None:
        self.inner.zero_grad()

    # -- introspection -----------------------------------------------------------

    @property
    def lr(self) -> float:
        return self.inner.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.inner.lr = value

    def staleness_report(self) -> dict[str, int]:
        """Map layer name -> steps since last inverse refresh."""
        return {state.name: state.inverse_staleness for _, state in self.layers}
