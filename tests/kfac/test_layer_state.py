"""Per-layer K-FAC state: curvature, inversion, preconditioning math."""

import numpy as np
import pytest

from repro.kfac import KFACLayerState, batched_pair_inverses


def make_state(din=3, dout=2, include_bias=False):
    return KFACLayerState(name="test", din=din, dout=dout, include_bias=include_bias)


def feed(state, n=32, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((n, state.din)).astype(np.float32)]
    grads = [rng.standard_normal((n, state.dout)).astype(np.float32) * scale]
    state.update_curvature(inputs, grads, loss_scale=1.0)
    return inputs, grads


class TestCurvature:
    def test_factors_populated(self):
        s = make_state()
        feed(s)
        assert s.a_factor.updates == 1 and s.b_factor.updates == 1
        assert s.a_factor.value.shape == (3, 3)
        assert s.b_factor.value.shape == (2, 2)

    def test_bias_augments_a_only(self):
        s = make_state(include_bias=True)
        feed(s)
        assert s.a_factor.value.shape == (4, 4)
        assert s.b_factor.value.shape == (2, 2)

    def test_loss_scale_applied_quadratically(self):
        s1, s2 = make_state(), make_state()
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal((8, 3)).astype(np.float32)]
        grads = [rng.standard_normal((8, 2)).astype(np.float32)]
        s1.update_curvature(inputs, grads, loss_scale=1.0)
        s2.update_curvature(inputs, grads, loss_scale=8.0)
        np.testing.assert_allclose(s2.b_factor.value, 64.0 * s1.b_factor.value,
                                    rtol=1e-4)

    def test_empty_captures_raise(self):
        with pytest.raises(ValueError):
            make_state().update_curvature([], [])


class TestInversion:
    def test_inversion_before_curvature_raises(self):
        with pytest.raises(RuntimeError):
            make_state().update_inverses(0.01)

    @pytest.mark.parametrize("use_pi", [True, False])
    @pytest.mark.parametrize("include_bias", [False, True])
    def test_inverses_are_the_batched_pair_inverses(self, use_pi, include_bias):
        """A lone layer inverts through the same float32 batch as KFAC."""
        s = make_state(din=9, dout=5, include_bias=include_bias)
        feed(s, scale=0.1)
        s.update_inverses(0.03, use_pi=use_pi)
        (a_inv, b_inv), = batched_pair_inverses(
            [(s.a_factor.value, s.b_factor.value)], 0.03, use_pi=use_pi)
        assert np.array_equal(s.a_inv, a_inv)
        assert np.array_equal(s.b_inv, b_inv)

    def test_inverses_set_and_fresh(self):
        s = make_state()
        feed(s)
        s.update_inverses(0.01)
        assert s.ready
        assert s.inverse_staleness == 0

    def test_staleness_ticks(self):
        s = make_state()
        feed(s)
        s.update_inverses(0.01)
        s.tick_staleness()
        s.tick_staleness()
        assert s.inverse_staleness == 2
        s.update_inverses(0.01)
        assert s.inverse_staleness == 0

    def test_staleness_untracked_before_first_inverse(self):
        s = make_state()
        s.tick_staleness()
        assert s.inverse_staleness == -1


class TestPrecondition:
    def test_identity_factors_with_damping_shrink_uniformly(self):
        """With A=B=I, preconditioning is a uniform rescale by the damping."""
        s = make_state()
        n = 20000
        rng = np.random.default_rng(1)
        # Near-isotropic inputs/grads -> factors ~ I.
        s.update_curvature(
            [rng.standard_normal((n, 3)).astype(np.float32)],
            [rng.standard_normal((n, 2)).astype(np.float32)],
        )
        s.update_inverses(0.0001, use_pi=False)
        g = np.ones((2, 3), dtype=np.float32)
        nat, _ = s.precondition(g)
        ratio = nat / g
        assert np.allclose(ratio, ratio[0, 0], rtol=0.15)

    def test_matches_explicit_kronecker_inverse(self):
        """B^{-1} G A^{-1} == unvec((A (x) B)^{-1} vec(G))."""
        s = make_state(din=3, dout=2)
        feed(s, n=64, seed=3)
        damping = 0.1
        s.update_inverses(damping, use_pi=False)
        g = np.random.default_rng(4).standard_normal((2, 3)).astype(np.float32)
        nat, _ = s.precondition(g)

        root = np.sqrt(damping)
        a_d = s.a_factor.value.astype(np.float64) + root * np.eye(3)
        b_d = s.b_factor.value.astype(np.float64) + root * np.eye(2)
        kron = np.kron(a_d, b_d)  # vec(G) stacks columns: G[:, j] blocks
        vec_g = g.T.reshape(-1)  # column-major vectorization
        vec_nat = np.linalg.solve(kron, vec_g)
        expected = vec_nat.reshape(3, 2).T
        np.testing.assert_allclose(nat, expected, rtol=5e-3, atol=1e-4)

    def test_bias_folded_and_returned(self):
        s = make_state(include_bias=True)
        feed(s, n=64)
        s.update_inverses(0.01)
        w = np.ones((2, 3), dtype=np.float32)
        b = np.ones(2, dtype=np.float32)
        nat_w, nat_b = s.precondition(w, b)
        assert nat_w.shape == (2, 3)
        assert nat_b.shape == (2,)
        assert not np.allclose(nat_b, b)

    def test_missing_bias_grad_uses_zero_homogeneous_column(self):
        """A bias layer whose bias has no gradient preconditions the weight
        gradient with a zero bias column and returns no bias result."""
        s = make_state(include_bias=True)
        feed(s, n=64)
        s.update_inverses(0.01)
        w = np.random.default_rng(6).standard_normal((2, 3)).astype(np.float32)
        nat_w, nat_b = s.precondition(w)
        assert nat_b is None
        expected, _ = s.precondition(w, np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(nat_w, expected)

    def test_float64_grad_gives_float32_result(self):
        s = make_state(include_bias=True)
        feed(s, n=64)
        s.update_inverses(0.01)
        rng = np.random.default_rng(7)
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        nat_w, nat_b = s.precondition(w, b)
        assert nat_w.dtype == np.float32 and nat_b.dtype == np.float32
        ref_w, ref_b = s.precondition(w.astype(np.float32), b.astype(np.float32))
        np.testing.assert_array_equal(nat_w, ref_w)
        np.testing.assert_array_equal(nat_b, ref_b)

    def test_precondition_before_inverse_raises(self):
        s = make_state()
        feed(s)
        with pytest.raises(RuntimeError):
            s.precondition(np.ones((2, 3), dtype=np.float32))

    def test_wrong_grad_shape_raises(self):
        s = make_state()
        feed(s)
        s.update_inverses(0.01)
        with pytest.raises(ValueError):
            s.precondition(np.ones((3, 2), dtype=np.float32))

    def test_preconditioning_whitens_dominant_direction(self):
        """Directions with large curvature are shrunk relative to flat ones."""
        s = make_state(din=2, dout=2)
        rng = np.random.default_rng(5)
        inputs = rng.standard_normal((4096, 2)).astype(np.float32)
        inputs[:, 0] *= 10.0  # strong curvature along input dim 0
        grads = rng.standard_normal((4096, 2)).astype(np.float32)
        s.update_curvature([inputs], [grads], loss_scale=1.0)
        s.update_inverses(1e-3, use_pi=False)
        g = np.ones((2, 2), dtype=np.float32)
        nat, _ = s.precondition(g)
        # Column 0 (high-curvature input direction) shrunk more than col 1.
        assert abs(nat[0, 0]) < abs(nat[0, 1])
