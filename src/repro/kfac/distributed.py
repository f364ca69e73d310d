"""Emulated distributed K-FAC schemes (paper §2.3.2).

These are the prior-art execution strategies PipeFisher is compared
against.  We run them on one process but faithfully reproduce their
*dataflow* — sharding, collective averaging, per-worker layer assignment,
and inverse staleness — so benchmarks can model their costs.  The
arithmetic is serial K-FAC's own: factors are formed by
:meth:`KFACLayerState.update_curvature` and inverted by
:func:`~repro.kfac.inverse.batched_pair_inverses`, the kernels
:class:`~repro.kfac.kfac.KFAC` runs, so for equal factors the emulated
schemes install inverses bit-identical to serial K-FAC's.

* :class:`DataInversionParallelKFAC` — Osawa et al. (2019): every worker
  computes curvature for its micro-batch shard, factors are allreduce-
  averaged, and the *inversion* work is split layer-wise across workers
  (Figure 2(ii,b)).
* :class:`CPUOffloadKFAC` — Ba et al. (2017): a stats worker computes
  factors and inverses asynchronously with a multi-step lag, so the
  preconditioner always uses inverses that are ``lag`` steps stale.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.kfac.inverse import batched_pair_inverses
from repro.kfac.layer import KFACLayerState


def round_robin_layer_assignment(num_layers: int, num_workers: int) -> list[list[int]]:
    """Assign layer indices to workers round-robin (inversion parallelism).

    This scheme "scales to as many distributed accelerators as the number
    of layers in the model" (§2.3.2); extra workers sit idle.
    """
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    assignment: list[list[int]] = [[] for _ in range(num_workers)]
    for layer in range(num_layers):
        assignment[layer % num_workers].append(layer)
    return assignment


class DataInversionParallelKFAC:
    """Data-parallel curvature + layer-parallel inversion, emulated.

    Parameters
    ----------
    states:
        Per-layer :class:`KFACLayerState` (shared with the training loop).
    num_workers:
        Number of emulated accelerators.
    damping, use_pi:
        Inversion hyperparameters.
    """

    def __init__(
        self,
        states: list[KFACLayerState],
        num_workers: int,
        damping: float = 0.03,
        use_pi: bool = True,
    ) -> None:
        self.states = states
        self.num_workers = num_workers
        self.damping = damping
        self.use_pi = use_pi
        self.assignment = round_robin_layer_assignment(len(states), num_workers)
        #: Bytes of dense factor traffic in the last allreduce (cost model).
        self.last_allreduce_bytes = 0

    def curvature_step(
        self,
        worker_inputs: list[list[np.ndarray]],
        worker_grads: list[list[np.ndarray]],
        loss_scales: list[list[float]],
    ) -> None:
        """Each worker contributes shard factors; allreduce-average them.

        ``worker_inputs[w][l]`` is worker ``w``'s captured input rows for
        layer ``l`` (similarly for grads); ``loss_scales[w][l]`` converts
        mean-loss grads to per-example error signals.
        """
        if len(worker_inputs) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} worker shards, got {len(worker_inputs)}"
            )
        workers = range(self.num_workers)
        bytes_moved = 0
        for l, state in enumerate(self.states):
            # The allreduce's row-weighted average of per-worker factors is
            # the factor of the concatenated worker rows: sum_w n_w * (1/n_w)
            # rows_w^T rows_w / total = concat^T concat / total, which is
            # what update_curvature forms from the workers' rows.
            state.update_curvature(
                [worker_inputs[w][l] for w in workers],
                [worker_grads[w][l] * np.float32(loss_scales[w][l]) for w in workers],
                loss_scale=1.0,
            )
            bytes_moved += 4 * (state.a_factor.dim ** 2 + state.b_factor.dim ** 2)
        self.last_allreduce_bytes = bytes_moved * (self.num_workers - 1)

    def inversion_step(self) -> dict[int, list[int]]:
        """Each worker inverts its assigned layers; returns worker -> layers.

        After this (emulated) phase every worker broadcast/allgathers its
        inverses, so all states end up populated.
        """
        done: dict[int, list[int]] = {}
        for w, layers in enumerate(self.assignment):
            done[w] = list(layers)
            for l in layers:
                self.states[l].update_inverses(self.damping, use_pi=self.use_pi)
        return done


class CPUOffloadKFAC:
    """Asynchronous CPU-offloaded curvature/inversion with fixed lag.

    The stats worker receives factor snapshots and returns inverses ``lag``
    submissions later — modeling "the inverse matrices used for
    preconditioning can be stale for many steps (e.g., 100-1000)" (§2.3.2).
    """

    def __init__(
        self,
        states: list[KFACLayerState],
        lag: int,
        damping: float = 0.03,
        use_pi: bool = True,
    ) -> None:
        if lag < 0:
            raise ValueError(f"lag must be non-negative, got {lag}")
        self.states = states
        self.lag = lag
        self.damping = damping
        self.use_pi = use_pi
        self._queue: deque[list[tuple[np.ndarray, np.ndarray]]] = deque()

    def submit_factors(self) -> None:
        """Snapshot current factors and enqueue them for the stats worker."""
        snapshot = [
            (s.a_factor.value.copy(), s.b_factor.value.copy()) for s in self.states
        ]
        self._queue.append(snapshot)

    def poll_inverses(self) -> bool:
        """If a snapshot has aged past ``lag``, invert it and install results.

        Returns True when fresh (well, lag-stale) inverses were installed.
        """
        if len(self._queue) <= self.lag:
            return False
        snapshot = self._queue.popleft()
        inverses = batched_pair_inverses(snapshot, self.damping, use_pi=self.use_pi)
        for state, (a_inv, b_inv) in zip(self.states, inverses):
            state.install_inverses(a_inv, b_inv)
            state.inverse_staleness = self.lag
        return True
