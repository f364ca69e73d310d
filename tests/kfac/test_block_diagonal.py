"""Block-diagonal factor approximation (paper Appendix A.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kfac.block_diagonal import (
    BlockDiagonalFactor,
    block_diag_inversion_flops,
    split_dim,
)
from repro.kfac.factors import compute_factor_from_rows
from repro.kfac.inverse import damped_cholesky_inverse


class TestSplitDim:
    def test_even(self):
        assert split_dim(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_front_loaded(self):
        assert split_dim(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_dim(4, 0)
        with pytest.raises(ValueError):
            split_dim(2, 4)


class TestBlockDiagonalFactor:
    def test_blocks_match_full_factor_diagonal(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((64, 8)).astype(np.float32)
        bd = BlockDiagonalFactor(8, 2)
        bd.update_from_rows(rows)
        full = compute_factor_from_rows(rows)
        np.testing.assert_allclose(bd.blocks[0], full[:4, :4], rtol=1e-5)
        np.testing.assert_allclose(bd.blocks[1], full[4:, 4:], rtol=1e-5)

    def test_dense_zeroes_cross_blocks(self):
        rng = np.random.default_rng(1)
        bd = BlockDiagonalFactor(6, 3)
        bd.update_from_rows(rng.standard_normal((32, 6)).astype(np.float32))
        dense = bd.dense()
        np.testing.assert_array_equal(dense[:2, 2:], 0)
        np.testing.assert_array_equal(dense[2:4, 4:], 0)

    def test_one_block_equals_full(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((32, 5)).astype(np.float32)
        bd = BlockDiagonalFactor(5, 1)
        bd.update_from_rows(rows)
        np.testing.assert_allclose(bd.dense(), compute_factor_from_rows(rows),
                                    rtol=1e-5)

    def test_solve_right_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        bd = BlockDiagonalFactor(6, 2)
        bd.update_from_rows(rng.standard_normal((64, 6)).astype(np.float32))
        g = rng.standard_normal((4, 6)).astype(np.float32)
        out = bd.solve_right(g, damping=0.1)
        dense_inv = np.linalg.inv(bd.dense().astype(np.float64) + 0.1 * np.eye(6))
        np.testing.assert_allclose(out, g.astype(np.float64) @ dense_inv,
                                    rtol=1e-3, atol=1e-5)

    def test_solve_left_matches_dense_inverse(self):
        rng = np.random.default_rng(4)
        bd = BlockDiagonalFactor(6, 3)
        bd.update_from_rows(rng.standard_normal((64, 6)).astype(np.float32))
        g = rng.standard_normal((6, 4)).astype(np.float32)
        out = bd.solve_left(g, damping=0.1)
        dense_inv = np.linalg.inv(bd.dense().astype(np.float64) + 0.1 * np.eye(6))
        np.testing.assert_allclose(out, dense_inv @ g.astype(np.float64),
                                    rtol=1e-3, atol=1e-5)

    def test_shape_validation(self):
        bd = BlockDiagonalFactor(6, 2)
        with pytest.raises(ValueError):
            bd.update_from_rows(np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ValueError):
            bd.solve_right(np.zeros((2, 5), dtype=np.float32), 0.1)


class TestInverseCaching:
    """Regression: solve_right/solve_left must not re-factorize per call."""

    def _factor(self, dim=8, blocks=2, seed=7):
        rng = np.random.default_rng(seed)
        bd = BlockDiagonalFactor(dim, blocks)
        bd.update_from_rows(rng.standard_normal((48, dim)).astype(np.float32))
        return bd, rng

    def test_repeated_solves_factorize_once(self):
        bd, rng = self._factor()
        g = rng.standard_normal((4, 8)).astype(np.float32)
        for _ in range(5):
            bd.solve_right(g, damping=0.1)
            bd.solve_left(g.T.copy(), damping=0.1)
        assert bd.factorizations == bd.num_blocks

    def test_new_damping_refactorizes_and_is_cached(self):
        bd, rng = self._factor()
        g = rng.standard_normal((4, 8)).astype(np.float32)
        bd.solve_right(g, damping=0.1)
        bd.solve_right(g, damping=0.2)
        bd.solve_right(g, damping=0.1)  # both dampings now cached
        bd.solve_right(g, damping=0.2)
        assert bd.factorizations == 2 * bd.num_blocks

    def test_update_invalidates_cache(self):
        bd, rng = self._factor()
        g = rng.standard_normal((4, 8)).astype(np.float32)
        bd.solve_right(g, damping=0.1)
        bd.update_from_rows(rng.standard_normal((48, 8)).astype(np.float32))
        out = bd.solve_right(g, damping=0.1)
        assert bd.factorizations == 2 * bd.num_blocks
        # The post-update solve must use the NEW factor, not the cache.
        dense_inv = np.linalg.inv(bd.dense().astype(np.float64) + 0.1 * np.eye(8))
        np.testing.assert_allclose(out, g.astype(np.float64) @ dense_inv,
                                    rtol=1e-3, atol=1e-5)

    def test_cache_bounded_across_dampings(self):
        """An adaptive damping schedule must not grow the cache unboundedly."""
        bd, rng = self._factor()
        g = rng.standard_normal((4, 8)).astype(np.float32)
        for step in range(20):
            bd.solve_right(g, damping=0.1 + 0.01 * step)
        assert len(bd._inverse_cache) <= bd._inverse_cache_max

    def test_cached_solves_equal_per_call_inverse(self):
        """Uniform blocks: the cached solves are exactly the per-call
        float64 ``damped_cholesky_inverse`` products."""
        bd, rng = self._factor(dim=12, blocks=3)
        g = rng.standard_normal((5, 12)).astype(np.float32)
        h = rng.standard_normal((12, 5)).astype(np.float32)
        right = bd.solve_right(g, damping=0.1)
        left = bd.solve_left(h, damping=0.1)
        for (s, e), block in zip(bd.ranges, bd.blocks):
            inv = damped_cholesky_inverse(block, 0.1)
            np.testing.assert_array_equal(right[:, s:e], g[:, s:e] @ inv)
            np.testing.assert_array_equal(left[s:e], inv @ h[s:e])

    def test_uneven_blocks_cache_too(self):
        rng = np.random.default_rng(9)
        bd = BlockDiagonalFactor(7, 3)  # ragged 3/2/2 split
        bd.update_from_rows(rng.standard_normal((32, 7)).astype(np.float32))
        g = rng.standard_normal((2, 7)).astype(np.float32)
        bd.solve_right(g, damping=0.05)
        bd.solve_right(g, damping=0.05)
        assert bd.factorizations == 3


class TestInversionFlops:
    def test_k_squared_savings(self):
        """K-block-diagonal cuts inversion FLOPs by ~K^2."""
        full = block_diag_inversion_flops([1024], 1)
        quarter = block_diag_inversion_flops([1024], 4)
        assert full / quarter == pytest.approx(16.0, rel=0.01)

    def test_appendix_a2_ratio_invariance(self):
        """A.2's claim: scale d_model/d_ff by K and use K-block-diagonal
        factors -> the (curv+inv)/bubble ratio matches the unscaled value."""
        from repro.perfmodel import PipelinePerfModel
        from repro.perfmodel.arch import BERT_BASE
        from repro.perfmodel.hardware import P100

        base = PipelinePerfModel(BERT_BASE, P100, "chimera").report(32, 8)
        k = 4
        scaled_arch = BERT_BASE.scaled(k)
        scaled = PipelinePerfModel(
            scaled_arch, P100, "chimera", factor_blocks=k
        ).report(32, 8)
        assert scaled.ratio == pytest.approx(base.ratio, rel=0.15)

    def test_without_blocks_ratio_explodes(self):
        """Sanity check on the same claim: WITHOUT block-diagonal factors,
        scaling by K makes inversion (d^3) outgrow bubbles (d^2)."""
        from repro.perfmodel import PipelinePerfModel
        from repro.perfmodel.arch import BERT_BASE
        from repro.perfmodel.hardware import P100

        base = PipelinePerfModel(BERT_BASE, P100, "chimera").report(32, 8)
        scaled = PipelinePerfModel(
            BERT_BASE.scaled(4), P100, "chimera", factor_blocks=1
        ).report(32, 8)
        assert scaled.ratio > 1.3 * base.ratio


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(2, 16), blocks=st.integers(1, 4), seed=st.integers(0, 99))
def test_block_diagonal_psd_property(dim, blocks, seed):
    """Every block of a block-diagonal factor is symmetric PSD."""
    blocks = min(blocks, dim)
    rng = np.random.default_rng(seed)
    bd = BlockDiagonalFactor(dim, blocks)
    bd.update_from_rows(rng.standard_normal((3 * dim, dim)).astype(np.float32))
    for b in bd.blocks:
        np.testing.assert_allclose(b, b.T, atol=1e-5)
        assert np.linalg.eigvalsh(b.astype(np.float64)).min() >= -1e-5
