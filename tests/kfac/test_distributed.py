"""Distributed K-FAC emulations: equivalence and staleness semantics."""

import numpy as np
import pytest

from repro.kfac import (
    KFAC,
    CPUOffloadKFAC,
    DataInversionParallelKFAC,
    KFACLayerState,
    batched_pair_inverses,
    compute_factor_from_rows,
    round_robin_layer_assignment,
)
from repro.nn import Linear
from repro.optim import SGD


def make_states(n_layers=3, din=4, dout=3, include_bias=False, stat_decay=0.0):
    return [
        KFACLayerState(name=f"l{i}", din=din, dout=dout,
                       include_bias=include_bias, stat_decay=stat_decay)
        for i in range(n_layers)
    ]


def frozen_curvature_step(states, worker_inputs, worker_grads, loss_scales):
    """The factor formation of ``DataInversionParallelKFAC.curvature_step``
    before it went through ``KFACLayerState.update_curvature``, verbatim:
    one concatenated matmul per factor over the loss-scaled worker rows."""
    num_workers = len(worker_inputs)
    for l, state in enumerate(states):
        rows_in = np.concatenate(
            [worker_inputs[w][l] for w in range(num_workers)], axis=0
        )
        rows_g = np.concatenate(
            [
                worker_grads[w][l] * np.float32(loss_scales[w][l])
                for w in range(num_workers)
            ],
            axis=0,
        )
        state.a_factor.update(
            compute_factor_from_rows(rows_in, include_bias=state.include_bias)
        )
        state.b_factor.update(compute_factor_from_rows(rows_g))


class TestRoundRobin:
    def test_basic(self):
        assert round_robin_layer_assignment(5, 2) == [[0, 2, 4], [1, 3]]

    def test_more_workers_than_layers(self):
        assignment = round_robin_layer_assignment(2, 4)
        assert assignment == [[0], [1], [], []]

    def test_all_layers_covered_once(self):
        assignment = round_robin_layer_assignment(7, 3)
        flat = sorted(l for w in assignment for l in w)
        assert flat == list(range(7))

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            round_robin_layer_assignment(3, 0)


class TestDataInversionParallel:
    def _shards(self, n_workers, n_layers, rows_per_worker=8, seed=0):
        rng = np.random.default_rng(seed)
        win, wg, ls = [], [], []
        for _ in range(n_workers):
            win.append([rng.standard_normal((rows_per_worker, 4)).astype(np.float32)
                        for _ in range(n_layers)])
            wg.append([rng.standard_normal((rows_per_worker, 3)).astype(np.float32)
                       for _ in range(n_layers)])
            ls.append([1.0] * n_layers)
        return win, wg, ls

    def test_equivalent_to_serial_kfac(self):
        """Sharded curvature + allreduce == single-worker full-batch factors."""
        n_workers, n_layers = 3, 2
        win, wg, ls = self._shards(n_workers, n_layers)

        par_states = make_states(n_layers)
        par = DataInversionParallelKFAC(par_states, n_workers, damping=0.05)
        par.curvature_step(win, wg, ls)
        par.inversion_step()

        ser_states = make_states(n_layers)
        for l, s in enumerate(ser_states):
            all_in = [win[w][l] for w in range(n_workers)]
            all_g = [wg[w][l] for w in range(n_workers)]
            s.update_curvature(all_in, all_g, loss_scale=1.0)
            s.update_inverses(0.05)

        for ps, ss in zip(par_states, ser_states):
            np.testing.assert_allclose(ps.a_factor.value, ss.a_factor.value, rtol=1e-4)
            np.testing.assert_allclose(ps.b_factor.value, ss.b_factor.value, rtol=1e-4)
            np.testing.assert_allclose(ps.a_inv, ss.a_inv, rtol=1e-3, atol=1e-5)

    @pytest.mark.parametrize("use_pi", [True, False])
    def test_inversion_bit_identical_to_kfac(self, use_pi):
        """Equal factors give np.array_equal inverses, whether KFAC inverts
        the whole model or the emulated workers invert their layers."""
        layers = [Linear(6, 5, rng=np.random.default_rng(i)) for i in range(3)]
        layers.append(Linear(5, 7, bias=False, rng=np.random.default_rng(3)))
        kfac = KFAC([(f"l{i}", l) for i, l in enumerate(layers)],
                    SGD([p for l in layers for p in l.parameters()], lr=0.1),
                    damping=0.05, use_pi=use_pi)
        states = [state for _, state in kfac.layers]
        par = DataInversionParallelKFAC(states, 2, damping=0.05, use_pi=use_pi)
        rng = np.random.default_rng(5)
        par.curvature_step(
            [[rng.standard_normal((8, s.din)).astype(np.float32) for s in states]
             for _ in range(2)],
            [[rng.standard_normal((8, s.dout)).astype(np.float32) for s in states]
             for _ in range(2)],
            [[8.0] * len(states) for _ in range(2)],
        )
        kfac.update_inverses()
        serial = [(s.a_inv, s.b_inv) for s in states]
        par.inversion_step()
        for s, (a_inv, b_inv) in zip(states, serial):
            assert s.a_inv is not a_inv
            assert np.array_equal(s.a_inv, a_inv)
            assert np.array_equal(s.b_inv, b_inv)

    @pytest.mark.parametrize("include_bias", [False, True])
    @pytest.mark.parametrize("stat_decay", [0.0, 0.95])
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_curvature_step_bit_identical_to_frozen_loop(
        self, include_bias, stat_decay, n_workers
    ):
        """Guard: forming factors through update_curvature leaves them
        bit-identical to the concatenate-and-matmul loop it replaced."""
        new = make_states(2, include_bias=include_bias, stat_decay=stat_decay)
        old = make_states(2, include_bias=include_bias, stat_decay=stat_decay)
        par = DataInversionParallelKFAC(new, n_workers)
        for refresh in range(2):  # the second refresh exercises the EMA
            win, wg, _ = self._shards(n_workers, 2, seed=refresh)
            ls = [[float(8 * n_workers), 3.0] for _ in range(n_workers)]
            par.curvature_step(win, wg, ls)
            frozen_curvature_step(old, win, wg, ls)
            for n, o in zip(new, old):
                assert np.array_equal(n.a_factor.value, o.a_factor.value)
                assert np.array_equal(n.b_factor.value, o.b_factor.value)

    def test_inversion_split_covers_all_layers(self):
        states = make_states(5)
        par = DataInversionParallelKFAC(states, 2, damping=0.05)
        win, wg, ls = self._shards(2, 5)
        par.curvature_step(win, wg, ls)
        done = par.inversion_step()
        assert sorted(l for ls_ in done.values() for l in ls_) == list(range(5))
        assert all(s.ready for s in states)

    def test_wrong_shard_count_raises(self):
        par = DataInversionParallelKFAC(make_states(2), 3)
        win, wg, ls = self._shards(2, 2)
        with pytest.raises(ValueError):
            par.curvature_step(win, wg, ls)

    def test_allreduce_bytes_tracked(self):
        states = make_states(2)
        par = DataInversionParallelKFAC(states, 2)
        win, wg, ls = self._shards(2, 2)
        par.curvature_step(win, wg, ls)
        # 2 layers * (4x4 + 3x3) fp32 * (workers-1).
        assert par.last_allreduce_bytes == 2 * 4 * (16 + 9) * 1


class TestCPUOffload:
    def _feed(self, states, seed):
        rng = np.random.default_rng(seed)
        for s in states:
            s.update_curvature(
                [rng.standard_normal((8, 4)).astype(np.float32)],
                [rng.standard_normal((8, 3)).astype(np.float32)],
                loss_scale=1.0,
            )

    def test_lag_semantics(self):
        """Inverses become available only after `lag` further submissions."""
        states = make_states(1)
        off = CPUOffloadKFAC(states, lag=2, damping=0.05)
        self._feed(states, 0)
        off.submit_factors()
        assert not off.poll_inverses()
        self._feed(states, 1)
        off.submit_factors()
        assert not off.poll_inverses()
        self._feed(states, 2)
        off.submit_factors()
        assert off.poll_inverses()
        assert states[0].ready
        assert states[0].inverse_staleness == 2

    def test_lag_zero_immediate(self):
        states = make_states(1)
        off = CPUOffloadKFAC(states, lag=0, damping=0.05)
        self._feed(states, 0)
        off.submit_factors()
        assert off.poll_inverses()

    def test_inverses_come_from_old_snapshot(self):
        states = make_states(1)
        off = CPUOffloadKFAC(states, lag=1, damping=0.05)
        self._feed(states, 0)
        snapshot = (states[0].a_factor.value.copy(),
                    states[0].b_factor.value.copy())
        off.submit_factors()
        self._feed(states, 99)  # factors change after snapshot
        off.submit_factors()
        assert off.poll_inverses()
        # The installed inverses are exactly those of the OLD snapshot.
        (a_inv, b_inv), = batched_pair_inverses([snapshot], 0.05)
        assert np.array_equal(states[0].a_inv, a_inv)
        assert np.array_equal(states[0].b_inv, b_inv)
        assert not np.array_equal(states[0].b_factor.value, snapshot[1])

    def test_negative_lag_raises(self):
        with pytest.raises(ValueError):
            CPUOffloadKFAC(make_states(1), lag=-1)
