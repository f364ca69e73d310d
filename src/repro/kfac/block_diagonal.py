"""Block-diagonal Kronecker-factor approximation (paper Appendix A.2).

For Transformers larger than BERT-Large, the d_model x d_model (and
d_ff x d_ff) factors no longer fit GPU memory or invert cheaply.  The
paper's proposed strategy: approximate each curvature matrix as a
K-block-diagonal matrix, so an inversion of size ``K*d`` splits into K
inversions of size ``d`` — and, because all work and bubble times scale by
K while inversion stays flat, "the (curvature+inversion)-bubble ratio will
match the value before scaling by K".

This module implements the numerics (block-diagonal factor accumulation,
inversion and preconditioning) so the strategy is runnable, and
:func:`block_diag_inversion_flops` feeds the performance model that the
A.2 invariance test checks.

Uniform-size blocks (the common ``dim % K == 0`` case) are updated as one
``(K, d/K, d/K)`` batched matmul.  Every block inverts through the
float64 :func:`~repro.kfac.inverse.damped_cholesky_inverse`, not the
float32 batch the K-FAC drivers run: the cached solves are checked
against per-solve float64 re-factorization at ``rtol=2e-3, atol=1e-5``
(``benchmarks/test_kfac_scaling.py``), and the float32 batch misses
that bound (at d=3072, K=8 and 512 rows, one of 2.36M entries, by
5.4e-7).  Inverse blocks are cached per damping value:
:meth:`BlockDiagonalFactor.solve_right`/``solve_left`` factorize once per
(factor refresh, damping) instead of on every solve — the steady-state
preconditioning loop between curvature refreshes pays only the block
matmuls.
"""

from __future__ import annotations

import numpy as np

from repro.kfac.inverse import damped_cholesky_inverse


def split_dim(dim: int, num_blocks: int) -> list[tuple[int, int]]:
    """Partition ``dim`` into ``num_blocks`` contiguous (start, end) ranges."""
    if num_blocks <= 0:
        raise ValueError(f"num_blocks must be positive, got {num_blocks}")
    if dim < num_blocks:
        raise ValueError(f"cannot split dim {dim} into {num_blocks} blocks")
    base, rem = divmod(dim, num_blocks)
    ranges = []
    start = 0
    for b in range(num_blocks):
        size = base + (1 if b < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


class BlockDiagonalFactor:
    """A curvature factor stored as K diagonal blocks.

    Equivalent to zeroing all cross-block covariance in the full factor:
    each block b holds ``(1/N) rows[:, b]^T rows[:, b]``.
    """

    def __init__(self, dim: int, num_blocks: int) -> None:
        self.dim = dim
        self.ranges = split_dim(dim, num_blocks)
        self.blocks: list[np.ndarray] = [
            np.zeros((e - s, e - s), dtype=np.float32) for s, e in self.ranges
        ]
        self.updates = 0
        #: Cached damped inverse blocks, keyed by damping; dropped whenever
        #: the factor estimate changes. Bounded so an adaptive damping
        #: schedule (new value every step between factor refreshes) cannot
        #: accumulate one inverse set per distinct damping.
        self._inverse_cache: dict[float, list[np.ndarray]] = {}
        self._inverse_cache_max = 4
        #: Total block Cholesky factorizations performed (regression hook:
        #: repeated solves at one damping must not grow this).
        self.factorizations = 0

    @property
    def num_blocks(self) -> int:
        return len(self.ranges)

    @property
    def _uniform_block(self) -> int | None:
        """Common block size when every block is equally sized, else None."""
        size = self.ranges[0][1] - self.ranges[0][0]
        if self.dim == size * len(self.ranges):
            return size
        return None

    def update_from_rows(self, rows: np.ndarray) -> None:
        """Replace the estimate with this batch's block factors."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) rows, got {rows.shape}")
        n = max(rows.shape[0], 1)
        size = self._uniform_block
        if size is not None:
            # One batched matmul over the (K, N, size) block view.
            view = np.ascontiguousarray(
                rows.reshape(rows.shape[0], len(self.ranges), size).transpose(1, 0, 2)
            )
            stack = np.matmul(np.transpose(view, (0, 2, 1)), view)
            stack /= np.float32(n)
            self.blocks = [b for b in stack.astype(np.float32, copy=False)]
        else:
            for i, (s, e) in enumerate(self.ranges):
                sub = rows[:, s:e]
                self.blocks[i] = (sub.T @ sub / np.float32(n)).astype(np.float32)
        self._inverse_cache.clear()
        self.updates += 1

    def inverse_blocks(self, damping: float) -> list[np.ndarray]:
        """Damped Cholesky inverse of every block (the split inversion work).

        Factorizations are cached per damping value until the next
        :meth:`update_from_rows`.
        """
        cached = self._inverse_cache.get(damping)
        if cached is not None:
            return cached
        inv = [damped_cholesky_inverse(b, damping) for b in self.blocks]
        self.factorizations += len(self.blocks)
        while len(self._inverse_cache) >= self._inverse_cache_max:
            self._inverse_cache.pop(next(iter(self._inverse_cache)))
        self._inverse_cache[damping] = inv
        return inv

    def dense(self) -> np.ndarray:
        """Materialize the block-diagonal matrix (tests / small dims only)."""
        out = np.zeros((self.dim, self.dim), dtype=np.float32)
        for (s, e), b in zip(self.ranges, self.blocks):
            out[s:e, s:e] = b
        return out

    def solve_right(self, g: np.ndarray, damping: float) -> np.ndarray:
        """Compute ``g @ (F + damping I)^{-1}`` blockwise (A-side solve)."""
        if g.shape[-1] != self.dim:
            raise ValueError(f"gradient last dim {g.shape[-1]} != {self.dim}")
        out = np.empty_like(g)
        for (s, e), inv in zip(self.ranges, self.inverse_blocks(damping)):
            out[..., s:e] = g[..., s:e] @ inv
        return out

    def solve_left(self, g: np.ndarray, damping: float) -> np.ndarray:
        """Compute ``(F + damping I)^{-1} @ g`` blockwise (B-side solve)."""
        if g.shape[0] != self.dim:
            raise ValueError(f"gradient first dim {g.shape[0]} != {self.dim}")
        out = np.empty_like(g)
        for (s, e), inv in zip(self.ranges, self.inverse_blocks(damping)):
            out[s:e] = inv @ g[s:e]
        return out


def block_diag_inversion_flops(dims: list[int], num_blocks: int) -> float:
    """Cholesky factorize+invert FLOPs with K-block-diagonal factors.

    A dimension ``d`` splits into K blocks of ``d/K``:
    ``K * (4/3) (d/K)^3 = (4/3) d^3 / K^2``.
    """
    total = 0.0
    for d in dims:
        sizes = [e - s for s, e in split_dim(d, min(num_blocks, d))]
        total += sum((4.0 / 3.0) * s**3 for s in sizes)
    return total
