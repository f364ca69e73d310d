"""Factor inversion (the paper's *inversion work*).

Each Kronecker factor is symmetric PSD, so the paper inverts via Cholesky:
``torch.linalg.cholesky`` + ``cholesky_inverse``.  The per-matrix reference
(:func:`damped_cholesky_inverse`) uses SciPy's ``cho_factor``/``cho_solve``
against the identity in float64, with Tikhonov damping to guarantee
positive definiteness.  It is the reference the tests compare against,
the fallback for a batch row whose float32 factorization fails, and the
block inverse of :class:`~repro.kfac.block_diagonal.BlockDiagonalFactor`;
no K-FAC driver calls it directly.

Every K-FAC driver inverts through :func:`batched_pair_inverses`:
:class:`~repro.kfac.kfac.KFAC` for the whole model,
:meth:`~repro.kfac.layer.KFACLayerState.update_inverses` (and so the
data+inversion-parallel emulation) for one layer, and the CPU-offload
emulation for a factor snapshot.  A layer therefore gets bit-identical
inverses whichever driver inverts it.

The batched path (:func:`batched_damped_cholesky_inverse`) inverts a
``(L, d, d)`` stack of same-dimension factors in float32 through LAPACK's
``spotrf``/``spotri`` (Cholesky factorize + triangular inverse-multiply,
~``d^3`` FLOPs exploiting symmetry).  A stacked ``np.linalg.cholesky`` +
``np.linalg.solve`` against a broadcast identity was benchmarked first and
is *slower* than the per-matrix SciPy loop on single-threaded OpenBLAS:
``solve`` runs a pivoted LU on the triangular factor, spending ~3x the
FLOPs that ``potri`` needs, so the direct Cholesky-inverse LAPACK driver
is the one that actually wins (1.5-3x; see ``BENCH_kfac.json``).

The batched path relies on every factor being **exactly** symmetric,
as K-FAC's are: each is formed as ``X^T X`` by one matmul, or blended
from such by a scalar EMA, and comes out exactly symmetric
(``tests/kfac/test_batched_equivalence.py`` checks the grouped and
lone-layer paths, with and without the EMA).  A C-ordered symmetric
matrix's transpose is then the same matrix in Fortran order, so
``spotrf`` factors that view in place: f2py makes no transposing copy,
and the result is bit-identical to factoring a Fortran copy.  (For an
input that is not exactly symmetric the batched path inverts the
symmetric matrix of its upper triangle.)

``spotri`` fills only the lower triangle, and ``spotrf`` (``clean=1``)
has zeroed the upper one, so each result is mirrored straight into its
output slot as ``L + L^T`` with the doubled diagonal restored: exact,
because every off-diagonal sum has one +0 addend.  The mirror runs in
blocks of columns: a whole-matrix ``L + L^T`` reads one operand at a
stride of one row, which at d=1024 (4 KiB rows) keeps hitting the same
cache sets, 11.2 ms against 2.5 ms in 64-column blocks.  No stack-sized
temporary is built.  :func:`batched_pair_inverses` damps its own
dimension-group stacks in place, so each factor is copied once before
LAPACK.

Damping follows Martens & Grosse (2015) §6.2: with overall damping
``lambda``, the factors receive ``pi * sqrt(lambda)`` and
``sqrt(lambda) / pi`` respectively, where
``pi = sqrt((trace(A)/dim_A) / (trace(B)/dim_B))`` balances the two.
:func:`pi_damping` is the one implementation of the split, with traces
summed in float64.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla
from scipy.linalg import lapack as _lapack

#: Columns per block of the triangle mirror (see the module docstring).
_MIRROR_BLOCK = 64


def damped_cholesky_inverse(mat: np.ndarray, damping: float) -> np.ndarray:
    """Return ``(mat + damping * I)^{-1}`` via Cholesky factorization.

    Parameters
    ----------
    mat:
        Symmetric positive semidefinite ``(d, d)`` matrix.
    damping:
        Non-negative Tikhonov term added to the diagonal.
    """
    if damping < 0:
        raise ValueError(f"damping must be non-negative, got {damping}")
    d = mat.shape[0]
    if mat.shape != (d, d):
        raise ValueError(f"expected square matrix, got {mat.shape}")
    damped = mat.astype(np.float64) + damping * np.eye(d)
    try:
        c, low = sla.cho_factor(damped, check_finite=False)
        inv = sla.cho_solve((c, low), np.eye(d), check_finite=False)
    except sla.LinAlgError:
        # PSD estimate degraded by fp error: retry with boosted damping.
        boosted = damped + max(damping, 1e-4) * 10.0 * np.eye(d)
        c, low = sla.cho_factor(boosted, check_finite=False)
        inv = sla.cho_solve((c, low), np.eye(d), check_finite=False)
    return inv.astype(np.float32)


def batched_damped_cholesky_inverse(
    stack: np.ndarray, dampings: np.ndarray | float
) -> np.ndarray:
    """Damped Cholesky inverses of a ``(L, d, d)`` factor stack, in float32.

    Parameters
    ----------
    stack:
        ``(L, d, d)`` exactly symmetric PSD matrices sharing one dimension
        (a layer group keyed by factor size).
    dampings:
        Scalar or ``(L,)`` per-matrix non-negative diagonal damping.

    Any matrix whose float32 factorization fails (PSD estimate degraded
    past float32's reach) falls back to the float64 reference path with
    its boosted-damping retry, so the batch never loses the robustness of
    :func:`damped_cholesky_inverse`.
    """
    stack = np.asarray(stack)
    return _invert_owned_stack(stack.astype(np.float32), dampings, stack)


def _invert_owned_stack(
    work: np.ndarray, dampings: np.ndarray | float, undamped
) -> np.ndarray:
    """:func:`batched_damped_cholesky_inverse` of a float32 stack it owns.

    ``work`` is damped and factored in place; ``undamped[i]`` is matrix
    ``i`` as the caller gave it, which the float64 fallback inverts.
    """
    if work.ndim != 3 or work.shape[1] != work.shape[2]:
        raise ValueError(f"expected (L, d, d) stack, got shape {work.shape}")
    n_mats, d = work.shape[0], work.shape[1]
    damp = np.broadcast_to(np.asarray(dampings, dtype=np.float64), (n_mats,))
    if np.any(damp < 0):
        raise ValueError("damping must be non-negative")
    idx = np.arange(d)
    work[:, idx, idx] += damp.astype(np.float32)[:, None]

    out = np.empty((n_mats, d, d), dtype=np.float32)
    for i in range(n_mats):
        # work[i].T is the symmetric work[i] in Fortran order: factored in
        # place, no copy.  clean=1: spotrf zeroes the upper triangle,
        # which spotri leaves untouched, so the mirror reads exact zeros
        # there.
        c, info = _lapack.spotrf(work[i].T, lower=1, clean=1,
                                 overwrite_a=True)
        if info == 0:
            inv, info = _lapack.spotri(c, lower=1, overwrite_c=True)
        if info != 0:
            inv = np.tril(damped_cholesky_inverse(undamped[i], float(damp[i])))
        _mirror_lower(inv, out[i])
    return out


def _mirror_lower(low: np.ndarray, out: np.ndarray) -> None:
    """Write the symmetric matrix of ``low``'s lower triangle to ``out``.

    ``low`` holds +0 above its diagonal, so ``low + low^T`` is exact off
    the diagonal (one addend is +0); it doubles the diagonal, which is
    restored.  Done in blocks of ``_MIRROR_BLOCK`` columns.
    """
    low_t = low.T
    for c0 in range(0, low.shape[1], _MIRROR_BLOCK):
        cols = slice(c0, c0 + _MIRROR_BLOCK)
        np.add(low[:, cols], low_t[:, cols], out=out[:, cols])
    np.fill_diagonal(out, low.diagonal())


def pi_damping(a: np.ndarray, b: np.ndarray, damping: float) -> tuple[float, float]:
    """Split overall ``damping`` between factors A and B (Martens & Grosse).

    Returns ``(damping_A, damping_B)`` with
    ``damping_A * damping_B = damping`` and the ratio set by the average
    trace of each factor.  Traces are summed in float64; a non-positive
    average trace falls back to the symmetric ``sqrt(lambda)`` split.
    """
    tr_a = float(np.trace(a, dtype=np.float64)) / a.shape[0]
    tr_b = float(np.trace(b, dtype=np.float64)) / b.shape[0]
    root = float(np.sqrt(damping))
    if tr_a <= 0 or tr_b <= 0:
        return root, root
    pi = float(np.sqrt(tr_a / tr_b))
    return root * pi, root / pi


def batched_pair_inverses(
    pairs: list[tuple[np.ndarray, np.ndarray]],
    damping: float,
    use_pi: bool = True,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Invert per-layer ``(A, B)`` factor pairs, grouped by dimension.

    The inversion work for a whole model, and the one inversion every
    K-FAC driver runs: each layer's damping is split by
    :func:`pi_damping`, then every distinct factor dimension is inverted
    as one float32 Cholesky batch.  Returns ``(a_inv, b_inv)`` float32
    pairs in input order.
    """
    root = float(np.sqrt(damping))
    # Group factor matrices (either side) by dimension, with their damping.
    dim_groups: dict[int, list[tuple[int, int, float]]] = {}
    for i, (a, b) in enumerate(pairs):
        damp = pi_damping(a, b, damping) if use_pi else (root, root)
        for side, mat in enumerate((a, b)):
            dim_groups.setdefault(mat.shape[0], []).append((i, side, damp[side]))

    out: list[list[np.ndarray | None]] = [[None, None] for _ in pairs]
    for members in dim_groups.values():
        mats = [pairs[i][side] for i, side, _ in members]
        # The stack is this function's own copy, already float32 for
        # K-FAC's factors: the inversion damps it in place, no second copy.
        inv_stack = _invert_owned_stack(
            np.asarray(np.stack(mats), dtype=np.float32),
            np.array([d for _, _, d in members]), mats)
        for (i, side, _), inv in zip(members, inv_stack):
            out[i][side] = inv
    return [(a, b) for a, b in out]  # type: ignore[misc]
