"""Kronecker factor construction: values, EMA, micro-batch accumulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kfac import KFACLayerState, KroneckerFactor, compute_factor_from_rows


class TestComputeFactor:
    def test_matches_definition(self):
        rows = np.random.default_rng(0).standard_normal((8, 3)).astype(np.float32)
        f = compute_factor_from_rows(rows)
        np.testing.assert_allclose(f, rows.T @ rows / 8, rtol=1e-5)

    def test_symmetric_psd(self):
        rows = np.random.default_rng(1).standard_normal((16, 5)).astype(np.float32)
        f = compute_factor_from_rows(rows)
        np.testing.assert_allclose(f, f.T, atol=1e-6)
        eig = np.linalg.eigvalsh(f.astype(np.float64))
        assert eig.min() >= -1e-6

    def test_bias_augmentation(self):
        rows = np.ones((4, 2), dtype=np.float32)
        f = compute_factor_from_rows(rows, include_bias=True)
        assert f.shape == (3, 3)
        assert f[2, 2] == pytest.approx(1.0)  # mean of ones^2
        assert f[0, 2] == pytest.approx(1.0)  # cross term with constant 1

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            compute_factor_from_rows(np.zeros(3))


class TestKroneckerFactor:
    def test_first_update_replaces(self):
        kf = KroneckerFactor(2, stat_decay=0.9)
        batch = np.eye(2, dtype=np.float32)
        kf.update(batch)
        np.testing.assert_allclose(kf.value, batch)

    def test_ema_blend(self):
        kf = KroneckerFactor(2, stat_decay=0.5)
        kf.update(np.eye(2, dtype=np.float32) * 2)
        kf.update(np.zeros((2, 2), dtype=np.float32))
        np.testing.assert_allclose(kf.value, np.eye(2))

    def test_zero_decay_replaces_every_time(self):
        kf = KroneckerFactor(2, stat_decay=0.0)
        kf.update(np.eye(2, dtype=np.float32))
        new = np.full((2, 2), 5.0, dtype=np.float32)
        kf.update(new)
        np.testing.assert_allclose(kf.value, new)

    def test_shape_check(self):
        kf = KroneckerFactor(3)
        with pytest.raises(ValueError):
            kf.update(np.zeros((2, 2), dtype=np.float32))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 20),
    d=st.integers(1, 6),
    splits=st.integers(1, 4),
    seed=st.integers(0, 999),
)
def test_microbatch_invariance_property(n, d, splits, seed):
    """Property: any contiguous micro-batching yields exactly the factors
    of the whole batch, which match the one-batch reference."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d)).astype(np.float32)
    grads = rng.standard_normal((n, d + 1)).astype(np.float32)
    cuts = sorted(set(rng.integers(1, n, size=splits - 1).tolist())) if splits > 1 else []
    whole = KFACLayerState("whole", din=d, dout=d + 1)
    whole.update_curvature([rows], [grads], loss_scale=1.0)
    micro = KFACLayerState("micro", din=d, dout=d + 1)
    micro.update_curvature(np.split(rows, cuts), np.split(grads, cuts),
                           loss_scale=1.0)
    assert np.array_equal(micro.a_factor.value, whole.a_factor.value)
    assert np.array_equal(micro.b_factor.value, whole.b_factor.value)
    np.testing.assert_allclose(
        whole.a_factor.value, compute_factor_from_rows(rows, include_bias=True),
        rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(
        whole.b_factor.value, compute_factor_from_rows(grads),
        rtol=1e-4, atol=1e-6)
