"""Composite and fused differentiable operations.

These are the NN-facing ops: softmax, layer normalization, embedding
lookup, dropout, GELU, and a fused softmax-cross-entropy.  Each is a single
tape node with a hand-derived vector-Jacobian product, which keeps the
graph small and the backward pass close to BLAS speed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (broadcasting) addition."""
    return a + b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (batched via NumPy semantics)."""
    return a @ b


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = x.data > 0
    return Tensor._make(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,))


_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation, as in BERT).

    gelu(x) = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))

    The cube is two multiplies, not ``x**3``: numpy sends a float32
    ``**3`` through its generic ``powf`` loop, ~100x slower than
    ``x * x * x`` (within 2 ulp of it; ``powf`` is not correctly rounded
    either).
    """
    xd = x.data
    inner = _SQRT_2_OVER_PI * (xd + np.float32(0.044715) * (xd * xd * xd))
    t = np.tanh(inner)
    out = 0.5 * xd * (1.0 + t)

    def backward(g: np.ndarray):
        sech2 = 1.0 - t * t
        d_inner = _SQRT_2_OVER_PI * (1.0 + 3.0 * np.float32(0.044715) * xd**2)
        grad = 0.5 * (1.0 + t) + 0.5 * xd * sech2 * d_inner
        return (g * grad,)

    return Tensor._make(out.astype(xd.dtype, copy=False), (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    soft = np.exp(out)

    def backward(g: np.ndarray):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Layer normalization over the last axis with affine parameters.

    Uses BERT's default ``eps=1e-12``.
    """
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (xd - mu) * inv_std
    out = x_hat * weight.data + bias.data
    n = xd.shape[-1]

    def backward(g: np.ndarray):
        g_xhat = g * weight.data
        # Standard layernorm VJP over the normalized axis.
        gx = (
            inv_std
            / n
            * (
                n * g_xhat
                - g_xhat.sum(axis=-1, keepdims=True)
                - x_hat * (g_xhat * x_hat).sum(axis=-1, keepdims=True)
            )
        )
        axes = tuple(range(g.ndim - 1))
        gw = (g * x_hat).sum(axis=axes)
        gb = g.sum(axis=axes)
        return gx.astype(xd.dtype), gw.astype(xd.dtype), gb.astype(xd.dtype)

    return Tensor._make(out.astype(xd.dtype), (x, weight, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` with scatter-add backward.

    Parameters
    ----------
    table:
        ``(vocab, dim)`` parameter tensor.
    ids:
        Integer index array of any shape; output has shape ``ids.shape + (dim,)``.
    """
    ids = np.asarray(ids)
    out = table.data[ids]
    vocab, dim = table.shape

    def backward(g: np.ndarray):
        grad = np.zeros((vocab, dim), dtype=table.dtype)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, dim))
        return (grad,)

    return Tensor._make(out, (table,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p`` and rescale by 1/(1-p)."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / np.float32(keep)
    return Tensor._make(x.data * mask, (x,), lambda g: (g * mask,))


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: ``cond ? a : b`` (cond is a plain bool array)."""
    cond = np.asarray(cond)
    out = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        ga = _unbroadcast(np.where(cond, g, 0.0), a.shape)
        gb = _unbroadcast(np.where(cond, 0.0, g), b.shape)
        return ga.astype(a.dtype), gb.astype(b.dtype)

    return Tensor._make(out, (a, b), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an existing axis (differentiable)."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(data, tuple(tensors), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Fused softmax + negative log likelihood.

    Parameters
    ----------
    logits:
        ``(N, C)`` unnormalized scores.
    targets:
        ``(N,)`` integer class labels.
    ignore_index:
        Label value whose positions contribute zero loss and zero gradient
        (the MLM convention for unmasked positions).
    reduction:
        ``"mean"`` (over non-ignored positions) or ``"sum"``.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    targets = np.asarray(targets).reshape(-1)
    ld = logits.data
    if ld.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits (N, C)")
    n = ld.shape[0]

    if ignore_index is not None:
        valid = targets != ignore_index
    else:
        valid = np.ones(n, dtype=bool)
    count = max(int(valid.sum()), 1)

    shifted = ld - ld.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp

    safe_targets = np.where(valid, targets, 0)
    nll = -logp[np.arange(n), safe_targets]
    nll = np.where(valid, nll, 0.0)
    total = nll.sum()
    loss = total / count if reduction == "mean" else total

    def backward(g: np.ndarray):
        softmax_probs = np.exp(logp)
        grad = softmax_probs.copy()
        grad[np.arange(n), safe_targets] -= 1.0
        grad[~valid] = 0.0
        scale = float(g) / count if reduction == "mean" else float(g)
        return (grad * scale,)

    return Tensor._make(np.asarray(loss, dtype=ld.dtype), (logits,), backward)
