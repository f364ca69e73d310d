"""The KFAC optimizer wrapper: orchestration, intervals, layer selection."""

import numpy as np
import pytest

from repro.kfac import KFAC, CPUOffloadKFAC, DataInversionParallelKFAC
from repro.nn import Linear, Module
from repro.optim import SGD
from repro.tensor import Tensor, functional as F


class TwoLayer(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(6, 5, rng=rng)
        self.fc2 = Linear(5, 4, rng=rng)

    def forward(self, x):
        return self.fc2(F.gelu(self.fc1(x)))


def loss_fn(model, x, y):
    return F.cross_entropy(model(Tensor(x)), y)


def make_kfac(model, **kw):
    inner = SGD(model.parameters(), lr=0.1)
    defaults = dict(damping=0.03)
    defaults.update(kw)
    return KFAC(
        [("fc1", model.fc1), ("fc2", model.fc2)], inner, **defaults
    )


def data(seed=0, n=16):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 6)).astype(np.float32), rng.integers(0, 4, n)


class TestConstruction:
    def test_capture_enabled_on_registration(self):
        model = TwoLayer()
        make_kfac(model)
        assert model.fc1.kfac_capture and model.fc2.kfac_capture

    def test_max_dout_excludes_vocab_head(self):
        model = TwoLayer()
        inner = SGD(model.parameters(), lr=0.1)
        kfac = KFAC([("fc1", model.fc1), ("fc2", model.fc2)], inner, max_dout=4)
        names = [s.name for _, s in kfac.layers]
        assert names == ["fc2"]
        assert kfac.skipped_layers == ["fc1"]

    def test_all_excluded_raises(self):
        model = TwoLayer()
        inner = SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            KFAC([("fc1", model.fc1)], inner, max_dout=1)

    def test_invalid_hyperparams(self):
        model = TwoLayer()
        inner = SGD(model.parameters(), lr=0.1)
        layers = [("fc1", model.fc1)]
        with pytest.raises(ValueError):
            KFAC(layers, inner, damping=0.0)
        with pytest.raises(ValueError):
            KFAC(layers, inner, curvature_interval=0)

    def test_non_linear_rejected(self):
        model = TwoLayer()
        inner = SGD(model.parameters(), lr=0.1)
        with pytest.raises(TypeError):
            KFAC([("m", model)], inner)


class TestStep:
    def test_first_step_refreshes_everything(self):
        model = TwoLayer()
        kfac = make_kfac(model)
        x, y = data()
        loss_fn(model, x, y).backward()
        kfac.step()
        assert all(s.ready for _, s in kfac.layers)
        assert kfac.staleness_report() == {"fc1": 1, "fc2": 1}

    def test_step_without_backward_raises(self):
        model = TwoLayer()
        kfac = make_kfac(model)
        with pytest.raises(RuntimeError):
            kfac.step()

    def test_intervals_respected(self):
        model = TwoLayer()
        kfac = make_kfac(model, curvature_interval=2, inverse_interval=4)
        x, y = data()
        inv_updates = []
        for step in range(4):
            kfac.zero_grad()
            loss_fn(model, x, y).backward()
            kfac.step()
            inv_updates.append(kfac.staleness_report()["fc1"])
        # Inverses refreshed at step 0 only -> staleness counts up.
        assert inv_updates == [1, 2, 3, 4]

    def test_preconditioning_changes_update_direction(self):
        m1, m2 = TwoLayer(), TwoLayer()
        x, y = data()
        sgd = SGD(m1.parameters(), lr=0.1)
        loss_fn(m1, x, y).backward()
        sgd.step()
        kfac = make_kfac(m2)
        loss_fn(m2, x, y).backward()
        kfac.step()
        assert not np.allclose(m1.fc1.weight.data, m2.fc1.weight.data, atol=1e-6)

    def test_loss_decreases_over_steps(self):
        model = TwoLayer()
        kfac = make_kfac(model)
        x, y = data(n=32)
        losses = []
        for _ in range(40):
            kfac.zero_grad()
            loss = loss_fn(model, x, y)
            loss.backward()
            kfac.step()
            losses.append(loss.item())
        # Monotone-ish descent on a fixed batch.
        assert losses[-1] < losses[0] - 0.1
        assert losses[-1] < min(losses[:5])

    def test_lr_proxies_inner(self):
        model = TwoLayer()
        kfac = make_kfac(model)
        kfac.lr = 0.5
        assert kfac.inner.lr == 0.5
        assert kfac.lr == 0.5

    def test_discard_on_non_refresh_steps(self):
        model = TwoLayer()
        kfac = make_kfac(model, curvature_interval=10)
        x, y = data()
        for _ in range(3):
            kfac.zero_grad()
            loss_fn(model, x, y).backward()
            kfac.step()
        # Captures must not accumulate across non-refresh steps.
        assert model.fc1.captured_inputs == []

    def test_fallback_to_raw_gradient_before_first_inverse(self):
        """With inverse_interval > 1... the very first step still inverts;
        but precondition() must skip layers whose inverses do not exist."""
        model = TwoLayer()
        kfac = make_kfac(model)
        x, y = data()
        loss_fn(model, x, y).backward()
        # Call precondition directly before any inversion: no-op, no error.
        kfac.precondition()


def _install_by_offload(kfac):
    offload = CPUOffloadKFAC([s for _, s in kfac.layers], lag=0, damping=0.3)
    offload.submit_factors()
    assert offload.poll_inverses()


def _install_by_inversion_parallel(kfac):
    DataInversionParallelKFAC([s for _, s in kfac.layers], num_workers=2,
                              damping=0.3).inversion_step()


def _install_by_layer_state(kfac):
    for _, state in kfac.layers:
        state.update_inverses(0.3)


class TestPrecondition:
    def _raw_grads(self, kfac, seed):
        rng = np.random.default_rng(seed)
        grads = []
        for layer, state in kfac.layers:
            wg = rng.standard_normal((state.dout, state.din)).astype(np.float32)
            bg = rng.standard_normal(state.dout).astype(np.float32)
            layer.weight.grad, layer.bias.grad = wg.copy(), bg.copy()
            grads.append((wg, bg))
        return grads

    @pytest.mark.parametrize("install", [
        _install_by_offload, _install_by_inversion_parallel,
        _install_by_layer_state,
    ], ids=["cpu-offload", "inversion-parallel", "layer-state"])
    def test_uses_inverses_installed_by_other_code(self, install):
        """Whoever installs a layer's inverses, the next precondition()
        applies them, not those of an earlier call."""
        model = TwoLayer()
        kfac = make_kfac(model)
        x, y = data()
        loss_fn(model, x, y).backward()
        kfac.update_curvature()
        kfac.update_inverses()
        self._raw_grads(kfac, seed=1)
        kfac.precondition()
        old = [state.a_inv for _, state in kfac.layers]

        install(kfac)
        assert not any(np.array_equal(state.a_inv, a)
                       for (_, state), a in zip(kfac.layers, old))
        grads = self._raw_grads(kfac, seed=2)
        kfac.precondition()
        for (layer, state), (wg, bg) in zip(kfac.layers, grads):
            want_w, want_b = state.precondition(wg, bg)
            np.testing.assert_array_equal(layer.weight.grad, want_w)
            np.testing.assert_array_equal(layer.bias.grad, want_b)

    def test_missing_bias_grad_stays_none(self):
        model = TwoLayer()
        kfac = make_kfac(model)
        x, y = data()
        loss_fn(model, x, y).backward()
        kfac.update_curvature()
        kfac.update_inverses()
        grads = self._raw_grads(kfac, seed=3)
        model.fc1.bias.grad = None
        kfac.precondition()
        assert model.fc1.bias.grad is None
        (_, state), (wg, _) = kfac.layers[0], grads[0]
        want_w, _ = state.precondition(wg, np.zeros(state.dout, np.float32))
        np.testing.assert_array_equal(model.fc1.weight.grad, want_w)
