"""Batched K-FAC kernels vs the seed per-layer / per-micro-batch loops.

The seed implementations (per-micro-batch float64 factor accumulation,
per-layer SciPy float64 inversion, per-layer preconditioning) are frozen
here as test-local references; the library's batched kernels must match
them across bias/no-bias, ragged micro-batch row counts, stat_decay in
{0, 0.95}, and use_pi on/off.

Documented tolerances (float32 kernels vs float64 seed references):

* curvature factors: ``rtol=5e-5, atol=1e-6`` — the concatenated float32
  matmul vs the float64 row-count-weighted accumulation differ only in
  summation order and the final rounding.
* inverses: ``rtol=2e-4, atol=1e-6`` — float32 ``spotrf``/``spotri`` vs
  float64 ``cho_factor``/``cho_solve``; the error scales with the damped
  factor's condition number, which the damping bounds.
* preconditioned gradients and training losses: ``rtol=1e-3, atol=1e-5``
  — inversion error propagated through two matmuls (and, for losses, a
  handful of optimization steps).
"""

import numpy as np
import pytest

from repro.kfac import KFAC, KFACLayerState
from repro.kfac.factors import compute_factor_from_rows
from repro.kfac.inverse import (
    batched_damped_cholesky_inverse,
    damped_cholesky_inverse,
    pi_damping,
)
from repro.nn import Linear, Module
from repro.optim import SGD
from repro.tensor import Tensor, functional as F

CURV_TOL = dict(rtol=5e-5, atol=1e-6)
INV_TOL = dict(rtol=2e-4, atol=1e-6)
PRECOND_TOL = dict(rtol=1e-3, atol=1e-5)


# -- frozen seed loops (the pre-vectorization implementations, verbatim) --------


def seed_accumulate_microbatches(factor, row_batches, include_bias=False):
    """Seed ``KroneckerFactor.accumulate_microbatches``: per-micro-batch
    matmuls through a float64 accumulator."""
    if not row_batches:
        raise ValueError("no micro-batch rows provided")
    total_rows = sum(b.shape[0] for b in row_batches)
    acc = np.zeros((factor.dim, factor.dim), dtype=np.float64)
    for b in row_batches:
        acc += compute_factor_from_rows(b, include_bias=include_bias) * (
            b.shape[0] / total_rows
        )
    factor.update(acc.astype(np.float32))


def seed_update_curvature(state, input_batches, grad_batches, loss_scale=1.0):
    """Seed ``KFACLayerState.update_curvature``: rescale every gradient row,
    then accumulate per micro-batch."""
    seed_accumulate_microbatches(
        state.a_factor, input_batches, include_bias=state.include_bias
    )
    scaled = [g * np.float32(loss_scale) for g in grad_batches]
    seed_accumulate_microbatches(state.b_factor, scaled, include_bias=False)


def seed_update_inverses(state, damping, use_pi=True):
    """Seed ``KFACLayerState.update_inverses``: per-layer float64 SciPy."""
    if use_pi:
        da, db = pi_damping(state.a_factor.value, state.b_factor.value, damping)
    else:
        da = db = float(np.sqrt(damping))
    state.a_inv = damped_cholesky_inverse(state.a_factor.value, da)
    state.b_inv = damped_cholesky_inverse(state.b_factor.value, db)
    state.inverse_staleness = 0


def seed_precondition(state, weight_grad, bias_grad=None):
    """Seed ``KFACLayerState.precondition``: per-layer concat + matmuls."""
    if state.include_bias and bias_grad is not None:
        g = np.concatenate([weight_grad, bias_grad.reshape(-1, 1)], axis=1)
    else:
        g = weight_grad
    nat = state.b_inv @ g @ state.a_inv
    if state.include_bias and bias_grad is not None:
        return nat[:, :-1].astype(np.float32), nat[:, -1].astype(np.float32)
    return nat.astype(np.float32), bias_grad


class SeedKFAC(KFAC):
    """The seed optimizer loops, layer by layer, for end-to-end comparison."""

    def update_curvature(self):
        for layer, state in self.layers:
            inputs, grads = layer.kfac_pop()
            if not inputs or not grads:
                raise RuntimeError(f"layer {state.name}: no captured rows")
            total_rows = sum(g.shape[0] for g in grads)
            seed_update_curvature(state, inputs, grads, loss_scale=float(total_rows))

    def update_inverses(self):
        for _, state in self.layers:
            seed_update_inverses(state, self.damping, use_pi=self.use_pi)

    def precondition(self):
        for layer, state in self.layers:
            if not state.ready or layer.weight.grad is None:
                continue
            bias_grad = layer.bias.grad if layer.bias is not None else None
            w_nat, b_nat = seed_precondition(state, layer.weight.grad, bias_grad)
            layer.weight.grad = w_nat
            if layer.bias is not None and b_nat is not None:
                layer.bias.grad = b_nat


# -- fixtures -------------------------------------------------------------------


def rand_batches(rng, counts, dim, scale=1.0):
    return [
        (rng.standard_normal((n, dim)) * scale).astype(np.float32) for n in counts
    ]


def make_models(seed=0, din=6, hidden=5, dout=4):
    class TwoLayer(Module):
        def __init__(self):
            super().__init__()
            rng = np.random.default_rng(seed)
            self.fc1 = Linear(din, hidden, rng=rng)
            self.fc2 = Linear(hidden, dout, rng=rng)

        def forward(self, x):
            return self.fc2(F.gelu(self.fc1(x)))

    return TwoLayer(), TwoLayer()


# -- curvature ------------------------------------------------------------------


@pytest.mark.parametrize("include_bias", [False, True])
@pytest.mark.parametrize("stat_decay", [0.0, 0.95])
@pytest.mark.parametrize("counts", [[8, 8, 8], [5, 11, 2, 14]])
def test_curvature_matches_seed_loop(include_bias, stat_decay, counts):
    """Single-concat + folded loss scale == per-micro-batch fp64 loop."""
    rng = np.random.default_rng(7)
    ref = KFACLayerState("ref", din=6, dout=4, include_bias=include_bias,
                         stat_decay=stat_decay)
    new = KFACLayerState("new", din=6, dout=4, include_bias=include_bias,
                         stat_decay=stat_decay)
    for refresh in range(3):  # several refreshes exercise the EMA blend
        inputs = rand_batches(rng, counts, 6)
        grads = rand_batches(rng, counts, 4, scale=0.05)
        n = float(sum(c for c in counts))
        seed_update_curvature(ref, inputs, grads, loss_scale=n)
        new.update_curvature(inputs, grads, loss_scale=n)
        np.testing.assert_allclose(new.a_factor.value, ref.a_factor.value, **CURV_TOL)
        np.testing.assert_allclose(new.b_factor.value, ref.b_factor.value, **CURV_TOL)


@pytest.mark.parametrize("ragged", [False, True])
def test_kfac_grouped_curvature_matches_seed(ragged):
    """``KFAC.update_curvature`` matches the seed per-layer loop,
    including when layers captured ragged (unequal) row totals."""
    rng = np.random.default_rng(11)
    m_new, m_seed = make_models(seed=3)
    kfac_new = KFAC([("fc1", m_new.fc1), ("fc2", m_new.fc2)],
                    SGD(m_new.parameters(), lr=0.1), damping=0.03)
    kfac_seed = SeedKFAC([("fc1", m_seed.fc1), ("fc2", m_seed.fc2)],
                         SGD(m_seed.parameters(), lr=0.1), damping=0.03)
    # Hand both the identical captured rows. With ragged=True the layers
    # see different micro-batch splits (and fc2 a different row total).
    for mb, (layer_new, layer_seed) in enumerate(
        zip([m_new.fc1, m_new.fc2], [m_seed.fc1, m_seed.fc2])
    ):
        counts = [4, 9, 3] if (ragged and mb == 1) else [8, 8]
        din = layer_new.in_features
        dout = layer_new.out_features
        inputs = rand_batches(rng, counts, din)
        grads = rand_batches(rng, counts, dout, scale=0.1)
        layer_new.captured_inputs = [b.copy() for b in inputs]
        layer_new.captured_output_grads = [g.copy() for g in grads]
        layer_seed.captured_inputs = [b.copy() for b in inputs]
        layer_seed.captured_output_grads = [g.copy() for g in grads]
    kfac_new.update_curvature()
    kfac_seed.update_curvature()
    for (_, s_new), (_, s_seed) in zip(kfac_new.layers, kfac_seed.layers):
        np.testing.assert_allclose(s_new.a_factor.value, s_seed.a_factor.value,
                                   **CURV_TOL)
        np.testing.assert_allclose(s_new.b_factor.value, s_seed.b_factor.value,
                                   **CURV_TOL)


@pytest.mark.parametrize("include_bias", [False, True])
@pytest.mark.parametrize("stat_decay", [0.0, 0.95])
def test_grouped_same_shape_layers_match_per_layer_path(include_bias,
                                                        stat_decay):
    """Same-shape layers get exactly the factors of
    feeding each layer alone through ``update_curvature``, over ragged
    micro-batches and two refreshes (the second exercises the EMA)."""
    rng = np.random.default_rng(13)
    layers = [Linear(6, 5, bias=include_bias, rng=np.random.default_rng(i))
              for i in range(4)]
    inner = SGD([p for l in layers for p in l.parameters()], lr=0.1)
    kfac = KFAC([(f"l{i}", l) for i, l in enumerate(layers)], inner,
                stat_decay=stat_decay)
    solos = [KFACLayerState("solo", din=6, dout=5, include_bias=include_bias,
                            stat_decay=stat_decay) for _ in layers]
    for _ in range(2):
        for l, solo in zip(layers, solos):
            inputs = rand_batches(rng, [37, 29], 6)
            grads = rand_batches(rng, [37, 29], 5, scale=0.1)
            l.captured_inputs = [b.copy() for b in inputs]
            l.captured_output_grads = [g.copy() for g in grads]
            solo.update_curvature(inputs, grads, loss_scale=66.0)
        kfac.update_curvature()
        for (_, state), solo in zip(kfac.layers, solos):
            assert np.array_equal(state.a_factor.value, solo.a_factor.value)
            assert np.array_equal(state.b_factor.value, solo.b_factor.value)


def test_held_factor_arrays_survive_the_next_refresh():
    """A factor array a caller holds is not overwritten by the next
    refresh: same-shape layers share no buffers between refreshes."""
    rng = np.random.default_rng(17)
    layers = [Linear(6, 5, rng=np.random.default_rng(i)) for i in range(4)]
    inner = SGD([p for l in layers for p in l.parameters()], lr=0.1)
    kfac = KFAC([(f"l{i}", l) for i, l in enumerate(layers)], inner)
    held = []
    for refresh in range(2):
        for l in layers:
            l.captured_inputs = rand_batches(rng, [8, 8], 6)
            l.captured_output_grads = rand_batches(rng, [8, 8], 5, scale=0.1)
        kfac.update_curvature()
        if refresh == 0:
            held = [(s.a_factor.value, s.a_factor.value.copy(),
                     s.b_factor.value, s.b_factor.value.copy())
                    for _, s in kfac.layers]
    for a, a_then, b, b_then in held:
        assert np.array_equal(a, a_then)
        assert np.array_equal(b, b_then)


@pytest.mark.parametrize("stat_decay", [0.0, 0.95])
def test_factors_are_exactly_symmetric(stat_decay):
    """The batched inversion factors each factor's transpose in place
    (see ``kfac/inverse.py``), which is the factor itself only when the
    factor is exactly symmetric: on the grouped path (same-shape
    layers), on the lone-layer path, and through the EMA blend."""
    rng = np.random.default_rng(19)
    group = [Linear(48, 40, rng=np.random.default_rng(i)) for i in range(3)]
    lone = Linear(40, 24, rng=np.random.default_rng(9))
    layers = group + [lone]
    inner = SGD([p for l in layers for p in l.parameters()], lr=0.1)
    kfac = KFAC([(f"l{i}", l) for i, l in enumerate(layers)], inner,
                stat_decay=stat_decay)
    for _ in range(3):
        for l in layers:
            l.captured_inputs = rand_batches(rng, [37, 29], l.in_features)
            l.captured_output_grads = rand_batches(
                rng, [37, 29], l.out_features, scale=0.1)
        kfac.update_curvature()
        for _, state in kfac.layers:
            for factor in (state.a_factor.value, state.b_factor.value):
                assert np.array_equal(factor, factor.T)


# -- inversion ------------------------------------------------------------------


@pytest.mark.parametrize("use_pi", [True, False])
@pytest.mark.parametrize("include_bias", [False, True])
def test_batched_inversion_matches_seed(use_pi, include_bias):
    rng = np.random.default_rng(17)
    m_new, m_seed = make_models(seed=5)
    kw = dict(damping=0.05, use_pi=use_pi)
    kfac_new = KFAC([("fc1", m_new.fc1), ("fc2", m_new.fc2)],
                    SGD(m_new.parameters(), lr=0.1), **kw)
    kfac_seed = SeedKFAC([("fc1", m_seed.fc1), ("fc2", m_seed.fc2)],
                         SGD(m_seed.parameters(), lr=0.1), **kw)
    for kfac in (kfac_new, kfac_seed):
        r = np.random.default_rng(23)
        for _, state in kfac.layers:
            state.include_bias = include_bias
            state.__post_init__()  # resize A for the bias toggle
            inputs = rand_batches(r, [16], state.din)
            grads = rand_batches(r, [16], state.dout, scale=0.1)
            state.update_curvature(inputs, grads, loss_scale=16.0)
    kfac_new.update_inverses()
    kfac_seed.update_inverses()
    for (_, s_new), (_, s_seed) in zip(kfac_new.layers, kfac_seed.layers):
        np.testing.assert_allclose(s_new.a_inv, s_seed.a_inv, **INV_TOL)
        np.testing.assert_allclose(s_new.b_inv, s_seed.b_inv, **INV_TOL)
        assert s_new.inverse_staleness == 0


def frozen_batched_pi_damping(a_traces, a_dims, b_traces, b_dims, damping):
    """The vectorized pi split ``KFAC`` used before every driver shared
    :func:`pi_damping`, verbatim."""
    tr_a = np.asarray(a_traces, dtype=np.float64) / np.asarray(a_dims)
    tr_b = np.asarray(b_traces, dtype=np.float64) / np.asarray(b_dims)
    root = float(np.sqrt(damping))
    ok = (tr_a > 0) & (tr_b > 0)
    pi = np.sqrt(np.where(ok, tr_a / np.where(tr_b > 0, tr_b, 1.0), 1.0))
    return root * pi, root / pi


def frozen_pair_inverses(pairs, damping, use_pi=True):
    """``batched_pair_inverses`` with its dampings split from stacked
    per-dimension traces (the form before the per-layer ``pi_damping``),
    verbatim but for the kernel call, which is the public twin of the
    one it made."""
    n = len(pairs)
    dim_groups = {}
    for i, (a, b) in enumerate(pairs):
        dim_groups.setdefault(a.shape[0], []).append((i, 0))
        dim_groups.setdefault(b.shape[0], []).append((i, 1))
    stacks = {
        dim: np.stack([pairs[i][side] for i, side in members])
        for dim, members in dim_groups.items()
    }
    if use_pi:
        tr_a = np.empty(n)
        tr_b = np.empty(n)
        for dim, members in dim_groups.items():
            traces = np.trace(stacks[dim], axis1=1, axis2=2, dtype=np.float64)
            for (i, side), t in zip(members, traces):
                (tr_a if side == 0 else tr_b)[i] = t
        a_dims = np.array([a.shape[0] for a, _ in pairs])
        b_dims = np.array([b.shape[0] for _, b in pairs])
        damp_a, damp_b = frozen_batched_pi_damping(
            tr_a, a_dims, tr_b, b_dims, damping)
    else:
        root = float(np.sqrt(damping))
        damp_a = np.full(n, root)
        damp_b = np.full(n, root)
    out = [[None, None] for _ in range(n)]
    for dim, members in dim_groups.items():
        damp = np.array(
            [(damp_a if side == 0 else damp_b)[i] for i, side in members]
        )
        inv_stack = batched_damped_cholesky_inverse(stacks[dim], damp)
        for j, (i, side) in enumerate(members):
            out[i][side] = inv_stack[j]
    return [(a, b) for a, b in out]


@pytest.mark.parametrize("use_pi", [True, False])
def test_update_inverses_bit_identical_to_stacked_trace_split(use_pi):
    """Guard: splitting each layer's damping with the float64-trace
    ``pi_damping`` leaves ``KFAC.update_inverses`` bit-identical to the
    stacked-trace vectorized split, over two refreshes of a stack with
    three dimension groups and a layer whose B trace is zero (the
    symmetric-split fallback)."""
    shapes = [(48, 48)] * 8 + [(48, 192), (192, 48)] * 2 + [(40, 24)]
    layers = [Linear(din, dout, rng=np.random.default_rng(i))
              for i, (din, dout) in enumerate(shapes)]
    kfac = KFAC([(f"l{i}", l) for i, l in enumerate(layers)],
                SGD([p for l in layers for p in l.parameters()], lr=0.1),
                damping=0.03, stat_decay=0.95, use_pi=use_pi)
    rng = np.random.default_rng(43)
    for _ in range(2):
        for j, (_, state) in enumerate(kfac.layers):
            scale = 0.0 if j == len(shapes) - 1 else 0.1
            state.update_curvature(
                rand_batches(rng, [24, 9], state.din),
                rand_batches(rng, [24, 9], state.dout, scale=scale),
                loss_scale=33.0,
            )
        kfac.update_inverses()
        pairs = [(s.a_factor.value, s.b_factor.value) for _, s in kfac.layers]
        want = frozen_pair_inverses(pairs, kfac.damping, use_pi=use_pi)
        for (_, state), (a_inv, b_inv) in zip(kfac.layers, want):
            assert np.array_equal(state.a_inv, a_inv)
            assert np.array_equal(state.b_inv, b_inv)


# -- preconditioning ------------------------------------------------------------


@pytest.mark.parametrize("use_pi", [True, False])
def test_batched_precondition_matches_seed(use_pi):
    rng = np.random.default_rng(29)
    m_new, m_seed = make_models(seed=8)
    kw = dict(damping=0.04, use_pi=use_pi)
    kfac_new = KFAC([("fc1", m_new.fc1), ("fc2", m_new.fc2)],
                    SGD(m_new.parameters(), lr=0.1), **kw)
    kfac_seed = SeedKFAC([("fc1", m_seed.fc1), ("fc2", m_seed.fc2)],
                         SGD(m_seed.parameters(), lr=0.1), **kw)
    grads = {}
    for kfac, model in ((kfac_new, m_new), (kfac_seed, m_seed)):
        r = np.random.default_rng(31)
        for (layer, state), name in zip(kfac.layers, ["fc1", "fc2"]):
            inputs = rand_batches(r, [16], state.din)
            g = rand_batches(r, [16], state.dout, scale=0.1)
            state.update_curvature(inputs, g, loss_scale=16.0)
            seed_update_inverses(state, kfac.damping, use_pi=use_pi)
            wg = r.standard_normal((state.dout, state.din)).astype(np.float32)
            bg = r.standard_normal(state.dout).astype(np.float32)
            layer.weight.grad = wg.copy()
            layer.bias.grad = bg.copy()
            grads[name] = (wg, bg)
    # Both sides precondition through IDENTICAL (seed fp64) inverses, so
    # this isolates the float32-buffer application and view writeback.
    kfac_new.precondition()
    kfac_seed.precondition()
    for (l_new, _), (l_seed, _) in zip(kfac_new.layers, kfac_seed.layers):
        np.testing.assert_allclose(l_new.weight.grad, l_seed.weight.grad,
                                   rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(l_new.bias.grad, l_seed.bias.grad,
                                   rtol=1e-5, atol=1e-7)


def test_precondition_skips_layers_without_grads():
    m_new, _ = make_models(seed=9)
    kfac = KFAC([("fc1", m_new.fc1), ("fc2", m_new.fc2)],
                SGD(m_new.parameters(), lr=0.1))
    r = np.random.default_rng(37)
    for layer, state in kfac.layers:
        state.update_curvature(
            rand_batches(r, [16], state.din),
            rand_batches(r, [16], state.dout, scale=0.1),
            loss_scale=16.0,
        )
    kfac.update_inverses()
    wg = r.standard_normal((m_new.fc1.out_features, m_new.fc1.in_features))
    m_new.fc1.weight.grad = wg.astype(np.float32)
    m_new.fc1.bias.grad = np.zeros(m_new.fc1.out_features, dtype=np.float32)
    m_new.fc2.weight.grad = None  # e.g. a frozen layer
    kfac.precondition()
    assert m_new.fc2.weight.grad is None
    assert not np.allclose(m_new.fc1.weight.grad, wg)


# -- end-to-end optimizer equivalence -------------------------------------------


@pytest.mark.parametrize("stat_decay", [0.0, 0.95])
def test_full_step_losses_match_seed(stat_decay):
    """Fixed-seed training smoke run: batched KFAC == seed-loop KFAC.

    Same model init, same data, five optimization steps; the loss
    trajectories must agree within the documented float32 tolerance —
    preconditioned training behavior is unchanged.
    """
    m_new, m_seed = make_models(seed=12)
    kw = dict(damping=0.03, stat_decay=stat_decay, curvature_interval=2)
    kfac_new = KFAC([("fc1", m_new.fc1), ("fc2", m_new.fc2)],
                    SGD(m_new.parameters(), lr=0.1), **kw)
    kfac_seed = SeedKFAC([("fc1", m_seed.fc1), ("fc2", m_seed.fc2)],
                         SGD(m_seed.parameters(), lr=0.1), **kw)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((32, 6)).astype(np.float32)
    y = rng.integers(0, 4, 32)
    losses = {"new": [], "seed": []}
    for name, model, opt in (("new", m_new, kfac_new), ("seed", m_seed, kfac_seed)):
        for _ in range(5):
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
            losses[name].append(loss.item())
    np.testing.assert_allclose(losses["new"], losses["seed"], **PRECOND_TOL)
    for p_new, p_seed in zip(m_new.parameters(), m_seed.parameters()):
        np.testing.assert_allclose(p_new.data, p_seed.data, **PRECOND_TOL)
