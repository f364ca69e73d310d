"""Functional ops: values, numerical properties, and edge cases."""

import numpy as np
import pytest

from repro.nn.losses import IGNORE_INDEX
from repro.tensor import Tensor, functional as F


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)).astype(np.float32))
        s = F.softmax(x).numpy()
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(4), rtol=1e-5)
        assert np.all(s >= 0)

    def test_shift_invariance(self):
        x = np.random.default_rng(1).standard_normal((3, 5)).astype(np.float32)
        a = F.softmax(Tensor(x)).numpy()
        b = F.softmax(Tensor(x + 100.0)).numpy()
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_large_values_stable(self):
        s = F.softmax(Tensor(np.array([[1e4, 0.0]], dtype=np.float32))).numpy()
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(1.0)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(2).standard_normal((2, 6)).astype(np.float32))
        np.testing.assert_allclose(
            F.log_softmax(x).numpy(), np.log(F.softmax(x).numpy()), atol=1e-5
        )

    def test_softmax_grad_zero_for_uniform_upstream(self):
        # d/dx softmax with constant upstream gradient is zero.
        x = Tensor(np.random.default_rng(3).standard_normal((2, 5)).astype(np.float32),
                   requires_grad=True)
        F.softmax(x).sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros((2, 5)), atol=1e-6)


class TestActivations:
    def test_relu_values(self):
        y = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(y.numpy(), [0.0, 0.0, 2.0])

    def test_relu_grad_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        F.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_gelu_known_values(self):
        y = F.gelu(Tensor([0.0])).numpy()
        assert y[0] == pytest.approx(0.0, abs=1e-6)
        # gelu(1) ~ 0.8412 (tanh approximation)
        assert F.gelu(Tensor([1.0])).numpy()[0] == pytest.approx(0.8412, abs=1e-3)

    def test_gelu_asymptotes(self):
        assert F.gelu(Tensor([10.0])).numpy()[0] == pytest.approx(10.0, rel=1e-4)
        assert F.gelu(Tensor([-10.0])).numpy()[0] == pytest.approx(0.0, abs=1e-4)

    def test_gelu_float32_matches_float64_formula(self):
        big = np.array([30.0, 1e3, 1e6, 1e13, 1e20, 3e38], dtype=np.float32)
        x = np.concatenate([np.linspace(-12, 12, 24001, dtype=np.float32),
                            big, -big])
        with np.errstate(over="ignore"):  # x**3 leaves float32 past ~7e12
            y = F.gelu(Tensor(x)).numpy()
        assert y.dtype == np.float32
        xd = x.astype(np.float64)
        ref = 0.5 * xd * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                        * (xd + 0.044715 * xd**3)))
        # For x < 0, 1 + tanh(.) cancels: float32 holds tanh to ~2^-24
        # absolute, which 0.5*|x| scales (y rounds to 0 once tanh == -1).
        atol = np.where(x < 0, np.abs(xd) * 2.0**-22, 0.0)
        assert np.all(np.abs(y - ref) <= 1e-6 * np.abs(ref) + atol)


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32) * 5 + 3)
        w = Tensor(np.ones(8, dtype=np.float32))
        b = Tensor(np.zeros(8, dtype=np.float32))
        y = F.layer_norm(x, w, b).numpy()
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(y.std(axis=-1), np.ones(4), atol=1e-2)

    def test_affine_params_applied(self):
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4)).astype(np.float32))
        w = Tensor(np.full(4, 2.0, dtype=np.float32))
        b = Tensor(np.full(4, 1.0, dtype=np.float32))
        y = F.layer_norm(x, w, b).numpy()
        np.testing.assert_allclose(y.mean(axis=-1), np.ones(2), atol=1e-4)

    def test_constant_input_stable(self):
        x = Tensor(np.full((2, 4), 7.0, dtype=np.float32))
        w = Tensor(np.ones(4, dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        y = F.layer_norm(x, w, b).numpy()
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y, np.zeros((2, 4)), atol=1e-3)


class TestEmbedding:
    def test_lookup(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = F.embedding(table, np.array([[0, 2], [3, 3]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.numpy()[0, 1], [6, 7, 8])

    def test_scatter_add_grad(self):
        table = Tensor(np.zeros((4, 2), dtype=np.float32), requires_grad=True)
        F.embedding(table, np.array([1, 1, 3])).sum().backward()
        np.testing.assert_allclose(table.grad[1], [2.0, 2.0])  # id 1 used twice
        np.testing.assert_allclose(table.grad[3], [1.0, 1.0])
        np.testing.assert_allclose(table.grad[0], [0.0, 0.0])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones(100, dtype=np.float32))
        y = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert y is x

    def test_zero_p_identity(self):
        x = Tensor(np.ones(10, dtype=np.float32))
        assert F.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_scaling_preserves_mean(self):
        x = Tensor(np.ones(200_000, dtype=np.float32))
        y = F.dropout(x, 0.3, np.random.default_rng(0)).numpy()
        assert float(y.mean()) == pytest.approx(1.0, abs=0.02)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_mask_consistent_in_backward(self):
        x = Tensor(np.ones(1000, dtype=np.float32), requires_grad=True)
        y = F.dropout(x, 0.5, np.random.default_rng(0))
        y.sum().backward()
        # Gradient is zero exactly where the output was zeroed.
        np.testing.assert_array_equal(x.grad == 0, y.numpy() == 0)


class TestWhere:
    def test_select(self):
        cond = np.array([True, False])
        y = F.where(cond, Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        np.testing.assert_allclose(y.numpy(), [1.0, 2.0])

    def test_grad_routing(self):
        cond = np.array([True, False])
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        F.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestConcatenate:
    def test_forward_backward(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        c = F.concatenate([a, b], axis=0)
        assert c.shape == (5, 2)
        c.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)


class TestCrossEntropy:
    def test_uniform_logits_loss_is_log_c(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(10), rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -100.0, dtype=np.float32)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_ignore_index_excluded(self):
        logits = Tensor(np.zeros((3, 5), dtype=np.float32))
        targets = np.array([1, IGNORE_INDEX, 2])
        loss = F.cross_entropy(logits, targets, ignore_index=IGNORE_INDEX)
        assert loss.item() == pytest.approx(np.log(5), rel=1e-5)

    def test_ignored_positions_zero_grad(self):
        logits = Tensor(np.zeros((2, 4), dtype=np.float32), requires_grad=True)
        F.cross_entropy(logits, np.array([0, IGNORE_INDEX]),
                        ignore_index=IGNORE_INDEX).backward()
        np.testing.assert_allclose(logits.grad[1], np.zeros(4))
        assert not np.allclose(logits.grad[0], 0)

    def test_grad_sums_to_zero_per_row(self):
        logits = Tensor(
            np.random.default_rng(0).standard_normal((3, 6)).astype(np.float32),
            requires_grad=True,
        )
        F.cross_entropy(logits, np.array([0, 1, 2])).backward()
        np.testing.assert_allclose(logits.grad.sum(axis=1), np.zeros(3), atol=1e-6)

    def test_sum_reduction(self):
        logits = Tensor(np.zeros((4, 10), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=np.int64), reduction="sum")
        assert loss.item() == pytest.approx(4 * np.log(10), rel=1e-5)

    def test_bad_reduction_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((1, 2), dtype=np.float32)),
                            np.array([0]), reduction="prod")

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros(4, dtype=np.float32)), np.array([0]))
