"""Damped Cholesky inversion and pi-corrected damping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

from repro.kfac import (
    batched_damped_cholesky_inverse,
    batched_pair_inverses,
    damped_cholesky_inverse,
    pi_damping,
)


def random_psd(d, seed=0, rank=None):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((d, rank or d))
    return (u @ u.T).astype(np.float32)


class TestDampedInverse:
    def test_inverse_of_identity(self):
        inv = damped_cholesky_inverse(np.eye(3, dtype=np.float32), 0.0)
        np.testing.assert_allclose(inv, np.eye(3), atol=1e-6)

    def test_matches_numpy_inverse(self):
        m = random_psd(5, 1) + np.eye(5, dtype=np.float32)
        inv = damped_cholesky_inverse(m, 0.0)
        np.testing.assert_allclose(inv, np.linalg.inv(m.astype(np.float64)),
                                    rtol=1e-4)

    def test_damping_added(self):
        m = np.zeros((3, 3), dtype=np.float32)
        inv = damped_cholesky_inverse(m, 0.5)
        np.testing.assert_allclose(inv, np.eye(3) / 0.5, rtol=1e-5)

    def test_singular_matrix_needs_damping(self):
        m = random_psd(6, 2, rank=2)  # rank-deficient
        inv = damped_cholesky_inverse(m, 1e-2)
        assert np.isfinite(inv).all()
        product = (m + 1e-2 * np.eye(6)) @ inv
        np.testing.assert_allclose(product, np.eye(6), atol=1e-3)

    def test_negative_damping_raises(self):
        with pytest.raises(ValueError):
            damped_cholesky_inverse(np.eye(2, dtype=np.float32), -1.0)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            damped_cholesky_inverse(np.zeros((2, 3), dtype=np.float32), 0.1)

    def test_result_symmetric(self):
        m = random_psd(4, 3) + np.eye(4, dtype=np.float32)
        inv = damped_cholesky_inverse(m, 0.1)
        np.testing.assert_allclose(inv, inv.T, atol=1e-6)


class TestPiDamping:
    def test_product_preserved(self):
        """damping_A * damping_B == overall damping (Martens & Grosse §6.2)."""
        a = random_psd(4, 1) + np.eye(4, dtype=np.float32)
        b = random_psd(6, 2) + np.eye(6, dtype=np.float32)
        da, db = pi_damping(a, b, 0.03)
        assert da * db == pytest.approx(0.03, rel=1e-6)

    def test_balanced_for_equal_traces(self):
        da, db = pi_damping(np.eye(3), np.eye(5), 0.04)
        assert da == pytest.approx(db)
        assert da == pytest.approx(np.sqrt(0.04))

    def test_larger_factor_gets_more_damping(self):
        a = np.eye(3, dtype=np.float32) * 100.0
        b = np.eye(3, dtype=np.float32)
        da, db = pi_damping(a, b, 0.01)
        assert da > db

    def test_degenerate_traces_fall_back(self):
        da, db = pi_damping(np.zeros((2, 2)), np.eye(2), 0.04)
        assert da == pytest.approx(np.sqrt(0.04))
        assert db == pytest.approx(np.sqrt(0.04))


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 500),
       damping=st.floats(1e-4, 1.0))
def test_inverse_property(d, seed, damping):
    """Property: (M + damping I) @ damped_inverse(M) ~ I for any PSD M."""
    m = random_psd(d, seed)
    inv = damped_cholesky_inverse(m, damping)
    product = (m.astype(np.float64) + damping * np.eye(d)) @ inv.astype(np.float64)
    np.testing.assert_allclose(product, np.eye(d), atol=5e-3)


def _tril_mirror_reference(stack, dampings):
    """Batched inverse with the stack-wide ``tril`` mirror: every
    ``spotri`` result lands in ``out`` whole, then ``out`` is rebuilt as
    ``tril(out) + tril(out, -1)^T``."""
    n_mats, d = stack.shape[0], stack.shape[1]
    damp = np.broadcast_to(np.asarray(dampings, dtype=np.float64), (n_mats,))
    damped = stack.astype(np.float32, copy=True)
    idx = np.arange(d)
    damped[:, idx, idx] += damp.astype(np.float32)[:, None]
    out = np.empty((n_mats, d, d), dtype=np.float32)
    for i in range(n_mats):
        c, info = lapack.spotrf(damped[i], lower=1, overwrite_a=False)
        if info == 0:
            inv, info = lapack.spotri(c, lower=1, overwrite_c=True)
        if info != 0:
            out[i] = damped_cholesky_inverse(stack[i], float(damp[i]))
            continue
        out[i] = inv
    lower = np.tril(out)
    return lower + np.transpose(np.tril(out, -1), (0, 2, 1))


def _indefinite(d, seed):
    """Symmetric with one eigenvalue of -5e-4: float32 ``spotrf`` fails
    on it, and the float64 reference succeeds on its boosted retry."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = rng.uniform(0.5, 2.0, d)
    eig[0] = -5e-4
    return ((q * eig) @ q.T).astype(np.float32)


def _stack(d, n, seed, indefinite_at=None):
    mats = [random_psd(d, seed + i) / np.float32(d) for i in range(n)]
    if indefinite_at is not None:
        mats[indefinite_at] = _indefinite(d, seed)
    return np.stack(mats)


class TestBatchedInverse:
    @pytest.mark.parametrize("d,n", [(2, 5), (257, 4), (1024, 2)])
    def test_bit_identical_to_tril_mirror(self, d, n):
        stack = _stack(d, n, seed=d)
        damp = np.linspace(1e-3, 3e-2, n)
        got = batched_damped_cholesky_inverse(stack, damp)
        assert got.dtype == np.float32
        assert np.array_equal(got, got.swapaxes(1, 2))
        assert np.array_equal(got, _tril_mirror_reference(stack, damp))

    def test_float64_fallback_row_bit_identical(self):
        stack = _stack(257, 3, seed=7, indefinite_at=1)
        damp = np.array([1e-3, 0.0, 2e-3])
        c, info = lapack.spotrf(stack[1], lower=1)
        assert info != 0  # row 1 really takes the fallback
        before = stack.copy()
        got = batched_damped_cholesky_inverse(stack, damp)
        assert np.array_equal(stack, before)  # the input is not damped
        assert np.array_equal(got, got.swapaxes(1, 2))
        assert np.array_equal(got, _tril_mirror_reference(stack, damp))

    def test_pair_inverses_match_reference_and_keep_inputs(self):
        pairs = [(random_psd(9, i) / np.float32(9),
                  random_psd(4, 50 + i) / np.float32(4)) for i in range(3)]
        pairs.append((_indefinite(9, 3), random_psd(4, 99)))
        before = [(a.copy(), b.copy()) for a, b in pairs]
        # Damping 1e-4 per factor leaves the last A indefinite: its row
        # takes the float64 fallback inside the in-place group stack.
        root = float(np.sqrt(1e-8))
        shifted = pairs[3][0] + np.float32(root) * np.eye(9, dtype=np.float32)
        assert lapack.spotrf(shifted, lower=1)[1] != 0
        got = batched_pair_inverses(pairs, 1e-8, use_pi=False)
        want_a = _tril_mirror_reference(np.stack([a for a, _ in pairs]), root)
        want_b = _tril_mirror_reference(np.stack([b for _, b in pairs]), root)
        for (a_inv, b_inv), wa, wb in zip(got, want_a, want_b):
            assert np.array_equal(a_inv, wa)
            assert np.array_equal(b_inv, wb)
        for (a, b), (a0, b0) in zip(pairs, before):
            assert np.array_equal(a, a0) and np.array_equal(b, b0)
