"""LMS and RLS estimator updates, error tracking, run trajectories and the
estimator table."""

import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gspest import (
    ConfigError,
    ExperimentConfig,
    NoiseModel,
    SamplingSet,
    SignalModel,
    build_cw,
    check_recoverability,
    lms_msd_trajectory,
    prepare_experiment,
    reference_grid,
    rls_gain_matrix,
    rls_msd_trajectory,
    run_experiment,
)
from gspest import estimators
from gspest.cli import main
from gspest.estimators import ESTIMATORS
from gspest.harness import _to_db, run_rng
from gspest.theory import lms_theory_exact

from conftest import SMALL_CONFIG, random_orthonormal
from oracle import (LmsState, draw_noise, error_signal, lms_init, lms_step, msd, rls_init,
                    rls_step, sampled_noise, sampling_mask, target_signal)

# Noise-free ground truth for the two-node fixture. With step size 25/16 the
# per-iteration error factor is 7/16 exactly, so MSD(t) = 4 * (7/16)^(2t-2).
LMS_HAND_MU = 1.5625
LMS_HAND_MSD = [4.0, 0.765625, 0.14654541015625, 0.0280497074127197265625]

# Forgetting factor 1/2 halves the error every iteration regardless of the
# noise weighting, so MSD(t) = 4 * (1/4)^(t-1).
RLS_HAND_LAM = 0.5
RLS_HAND_MSD = [4.0, 1.0, 0.25, 0.0625]


class TestHandValues:
    def test_lms_noise_free_sequence(self, hand_model):
        state = lms_init(hand_model, LMS_HAND_MU)
        w = np.zeros(2)
        got = [msd(hand_model, state.s_hat)]
        for _ in range(3):
            state = lms_step(state, hand_model, w)
            got.append(msd(hand_model, state.s_hat))
        assert_allclose(got, LMS_HAND_MSD, rtol=1e-13)

    def test_rls_noise_free_sequence(self, hand_model_noisy):
        state = rls_init(hand_model_noisy, RLS_HAND_LAM)
        w = np.zeros(2)
        got = [msd(hand_model_noisy, state.s_hat)]
        for _ in range(3):
            state = rls_step(state, hand_model_noisy, w)
            got.append(msd(hand_model_noisy, state.s_hat))
        assert_allclose(got, RLS_HAND_MSD, rtol=1e-13)

    def test_rls_noise_free_geometric_decay(self, setup10):
        # with zero observation noise the error shrinks by lam each step
        model = setup10
        lam = 0.75
        state = rls_init(model, lam)
        energy = float(model.s_f @ model.s_f)
        w = np.zeros(model.n)
        for t in range(1, 12):
            assert_allclose(msd(model, state.s_hat), energy * lam ** (2 * t - 2),
                            rtol=1e-11)
            state = rls_step(state, model, w)

    def test_lms_noise_free_monotone_to_zero(self, setup10):
        model = setup10
        state = lms_init(model, 0.5)
        w = np.zeros(model.n)
        prev = msd(model, state.s_hat)
        for _ in range(200):
            state = lms_step(state, model, w)
            cur = msd(model, state.s_hat)
            assert cur <= prev + 1e-15
            prev = cur
        assert prev < 1e-6


class TestMsd:
    def test_equals_coefficient_error(self, setup10):
        model = setup10
        rng = np.random.default_rng(3)
        for _ in range(5):
            s_hat = rng.standard_normal(model.f)
            want = float((s_hat - model.s_f) @ (s_hat - model.s_f))
            assert_allclose(msd(model, s_hat), want, rtol=1e-10)

    @given(values=st.lists(st.floats(min_value=-10, max_value=10),
                           min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_duality_property(self, setup10, values):
        model = setup10
        s_hat = np.asarray(values)
        node_err = model.band.u_f @ s_hat - target_signal(model)
        assert_allclose(msd(model, s_hat), node_err @ node_err,
                        rtol=0, atol=1e-9 * (1 + node_err @ node_err))

    def test_msd_db(self):
        out = _to_db(np.array([1.0, 100.0, 10.0, 0.0, -1.0]))
        assert out[0] == 0.0
        assert_allclose(out[1:3], [20.0, 10.0], rtol=1e-12)
        assert out[3] == -np.inf
        assert np.isnan(out[4])  # the literal curve can dip below zero


class TestErrorSignal:
    def test_masks_unsampled_nodes(self, setup10):
        model = setup10
        rng = np.random.default_rng(5)
        w = draw_noise(model.noise, rng)
        e = error_signal(model, np.zeros(model.f), w)
        mask = sampling_mask(model.sampling)
        assert np.all(e[~mask] == 0)
        resid = target_signal(model) + w
        assert_allclose(e[mask], resid[mask], rtol=1e-12)


class TestStates:
    def test_lms_step_returns_new_state(self, hand_model):
        state = lms_init(hand_model, 0.5)
        before = state.s_hat.copy()
        nxt = lms_step(state, hand_model, np.zeros(2))
        assert nxt.t == state.t + 1
        assert_allclose(state.s_hat, before, rtol=0, atol=0)
        assert nxt is not state

    def test_states_are_immutable(self, hand_model):
        state = lms_init(hand_model, 0.5)
        with pytest.raises(ValueError):
            state.s_hat[0] = 3.0

    def test_lms_init_rejects_nonfinite_mu(self, hand_model):
        with pytest.raises(ValueError):
            lms_init(hand_model, np.inf)

    def test_rls_init_validates_lambda(self, hand_model_noisy):
        with pytest.raises(ValueError):
            rls_init(hand_model_noisy, 0.0)
        with pytest.raises(ValueError):
            rls_init(hand_model_noisy, 1.2)
        with pytest.warns(UserWarning):
            rls_init(hand_model_noisy, 0.3)



class TestSignalModel:
    def test_stable_step_range(self):
        band = random_orthonormal(9, 4, seed=5)
        s = SamplingSet(indices=tuple(range(9)), n=9)
        model = SignalModel(band=band, s_f=np.zeros(4), sampling=s, noise=build_cw(0.0, 0.0, 9, 0))
        model.require_recoverable()
        assert_allclose(model.mu_max, 2.0, rtol=1e-12)

    def test_stable_step_range_requires_recoverable(self):
        band = random_orthonormal(10, 4, seed=7)
        model = SignalModel(band=band, s_f=np.zeros(4), sampling=SamplingSet(indices=(0, 1), n=10),
                            noise=build_cw(0.0, 0.0, 10, 0))
        with pytest.raises(ValueError):
            model.require_recoverable()

    def test_replaced_noise_gets_a_new_gain(self, setup10):
        model = setup10
        gain = model.gain  # cached on first use
        other = replace(model, noise=NoiseModel(2.0 * model.noise.c_w))
        assert_allclose(other.gain, 2.0 * gain, rtol=1e-12)
        assert_allclose(other.gain, rls_gain_matrix(model.band, model.sampling,
                                                    other.noise.c_w), rtol=1e-12)
        assert model.gain is gain

    def test_replaced_sampling_gets_a_new_spectrum(self, setup10):
        model = setup10
        lam_min, mu_max = model.lam_min, model.mu_max  # cached on first use
        assert lam_min < 0.999
        every = SamplingSet(indices=tuple(range(model.n)), n=model.n)
        other = replace(model, sampling=every)
        # all nodes sampled: U_S^T U_S = I, so lam_min = 1 and mu_max = 2
        assert_allclose(other.lam_min, 1.0, rtol=1e-12)
        assert_allclose(other.lam_min, check_recoverability(model.band, every)[1], rtol=1e-12)
        assert_allclose(other.mu_max, 2.0, rtol=1e-12)
        assert other.rows.shape == (model.n, model.f) and other.c_s.shape == (model.n,)
        assert (model.lam_min, model.mu_max) == (lam_min, mu_max)


class TestGainMatrix:
    def test_inverse_relation(self, setup10):
        model = setup10
        band, sampling, c_w = model.band, model.sampling, model.noise.c_w
        m_mat = rls_gain_matrix(band, sampling, c_w)
        sel = list(sampling.indices)
        rows = band.u_f[sel, :] / np.sqrt(c_w[sel])[:, None]
        m_inv = rows.T @ rows
        assert_allclose(m_mat @ m_inv, np.eye(band.f), atol=1e-10)
        assert_allclose(m_mat, m_mat.T, rtol=0, atol=1e-14)

    def test_rejects_zero_variance(self, setup10):
        model = setup10
        with pytest.raises(ValueError):
            rls_gain_matrix(model.band, model.sampling,
                            np.zeros(model.n))


class TestTrajectories:
    def test_lms_matches_step_loop(self, setup10):
        model = setup10
        mu, n_iter = 0.5, 60
        fast = lms_msd_trajectory(model, mu, n_iter, [np.random.default_rng(17)])[0]
        rng = np.random.default_rng(17)
        state = lms_init(model, mu)
        slow = [msd(model, state.s_hat)]
        for _ in range(n_iter - 1):
            state = lms_step(state, model, sampled_noise(model, rng))
            slow.append(msd(model, state.s_hat))
        assert_allclose(fast, slow, rtol=1e-11)

    def test_rls_matches_step_loop(self, setup10):
        model = setup10
        lam, n_iter = 0.7, 60
        fast = rls_msd_trajectory(model, lam, n_iter, [np.random.default_rng(19)])[0]
        rng = np.random.default_rng(19)
        state = rls_init(model, lam)
        slow = [msd(model, state.s_hat)]
        for _ in range(n_iter - 1):
            state = rls_step(state, model, sampled_noise(model, rng))
            slow.append(msd(model, state.s_hat))
        assert_allclose(fast, slow, rtol=1e-11)

    @pytest.mark.parametrize("trajectory, init, step, param", [
        (lms_msd_trajectory, lms_init, lms_step, 0.5),
        (rls_msd_trajectory, rls_init, rls_step, 0.7),
    ], ids=["lms", "rls"])
    def test_frozen_noise_reuses_one_draw(self, setup10, trajectory, init, step, param):
        model = setup10
        fast = trajectory(model, param, 40, [np.random.default_rng(23)], frozen_noise=True)[0]
        rng = np.random.default_rng(23)
        w = sampled_noise(model, rng)
        state = init(model, param)
        slow = [msd(model, state.s_hat)]
        for _ in range(39):
            state = step(state, model, w)
            slow.append(msd(model, state.s_hat))
        assert_allclose(fast, slow, rtol=1e-11)

    def test_first_entry_is_signal_energy(self, setup10):
        model = setup10
        energy = float(model.s_f @ model.s_f)
        vals = lms_msd_trajectory(model, 0.5, 5, [np.random.default_rng(1)])[0]
        assert_allclose(vals[0], energy, rtol=1e-12)
        vals = rls_msd_trajectory(model, 0.7, 5, [np.random.default_rng(1)])[0]
        assert_allclose(vals[0], energy, rtol=1e-12)

    def test_requires_at_least_one_iteration(self, setup10):
        with pytest.raises(ValueError):
            lms_msd_trajectory(setup10, 0.5, 0, np.random.default_rng(1))

    # tiles of side 1, 4 and 7: nine runs leave a short last chunk of runs at
    # 17 and 60, and 59 steps a short last block of steps at 60
    @pytest.mark.parametrize("n_iter", [2, 17, 60])
    @pytest.mark.parametrize("frozen", [False, True], ids=["iid", "frozen"])
    @pytest.mark.parametrize("trajectory, init, step, param", [
        (lms_msd_trajectory, lms_init, lms_step, 0.5),
        (rls_msd_trajectory, rls_init, rls_step, 0.7),
    ], ids=["lms", "rls"])
    def test_every_batched_run_matches_step_loop(self, setup10, trajectory, init, step, param,
                                                 frozen, n_iter):
        model = setup10
        seeds = range(100, 109)
        fast = trajectory(model, param, n_iter, [np.random.default_rng(s) for s in seeds],
                          frozen_noise=frozen)
        assert fast.shape == (len(seeds), n_iter)
        for row, seed in zip(fast, seeds):
            rng = np.random.default_rng(seed)
            w = sampled_noise(model, rng)
            state = init(model, param)
            slow = [msd(model, state.s_hat)]
            for _ in range(n_iter - 1):
                state = step(state, model, w)
                slow.append(msd(model, state.s_hat))
                if not frozen:
                    w = sampled_noise(model, rng)
            assert_allclose(row, slow, rtol=1e-12)

    # isqrt(1199) = 34, so the tile side is capped at 32: 33 runs leave a
    # one-run chunk, and 1199 steps a last block of 15; the first run, the
    # last of the first chunk and the lone one are stepped
    @pytest.mark.parametrize("trajectory, init, step, param", [
        (lms_msd_trajectory, lms_init, lms_step, 0.5),
        (rls_msd_trajectory, rls_init, rls_step, 0.7),
    ], ids=["lms", "rls"])
    def test_capped_tiles_match_step_loop(self, setup10, trajectory, init, step, param):
        model, n_iter, seeds = setup10, 1200, range(300, 333)
        fast = trajectory(model, param, n_iter, [np.random.default_rng(s) for s in seeds])
        for r in (0, 31, 32):
            rng = np.random.default_rng(seeds[r])
            state = init(model, param)
            slow = [msd(model, state.s_hat)]
            for _ in range(n_iter - 1):
                state = step(state, model, sampled_noise(model, rng))
                slow.append(msd(model, state.s_hat))
            assert_allclose(fast[r], slow, rtol=1e-12)

    @pytest.mark.parametrize("frozen", [False, True], ids=["iid", "frozen"])
    def test_run_does_not_depend_on_its_batch(self, setup10, frozen):
        model = setup10

        def curves(batch):
            rngs = [run_rng(42, r) for r in range(50)]
            return np.vstack([lms_msd_trajectory(model, 0.5, 60, rngs[i:i + batch],
                                                 frozen_noise=frozen)
                              for i in range(0, 50, batch)])

        alone = curves(1)
        for batch in (7, 50):
            assert_allclose(curves(batch), alone, rtol=1e-12)


needs_blas_control = pytest.mark.skipif(estimators._openblas() is None,
                                        reason="no OpenBLAS thread control found")


class FailingStream:
    """A run stream that records the BLAS thread count at each draw, then
    draws from rng, or fails without one."""

    def __init__(self, seen, rng=None):
        self.seen, self.rng = seen, rng

    def standard_normal(self, out):
        self.seen.append(estimators._blas_threads())
        if self.rng is None:
            raise RuntimeError("this lane failed")
        return self.rng.standard_normal(out=out)


@needs_blas_control
class TestLanes:
    """A row's runs split over lanes, one thread each, with the same bits as
    one lane; the gate is opened and the CPU count set by monkeypatch."""

    @staticmethod
    def lanes(monkeypatch, count, min_draws=0):
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: count)
        monkeypatch.setattr(estimators, "_LANE_MIN_DRAWS", min_draws)

    # 40 runs x 300 steps: side 17, so chunks of 14, 14 and 12 runs in tiles
    # of 18 steps. 5 runs x 18 steps: side 4, so chunks of 3 and 2 runs
    @pytest.mark.parametrize("n_runs, n_iter, chunks", [(40, 300, 3), (5, 18, 2)],
                             ids=["40-300", "5-18"])
    @pytest.mark.parametrize("trajectory, param", [
        (lms_msd_trajectory, 0.5),
        (rls_msd_trajectory, 0.7),
    ], ids=["lms", "rls"])
    def test_curves_equal_across_lane_counts(self, setup10, monkeypatch, trajectory, param,
                                             n_runs, n_iter, chunks):
        curves = {}
        for count in (1, 2, 3):
            self.lanes(monkeypatch, count)
            lanes = estimators.row_schedule(n_runs, n_iter, setup10.sampling.size, False).lanes
            assert lanes == min(count, chunks)
            curves[count] = trajectory(setup10, param, n_iter,
                                       [run_rng(3, r) for r in range(n_runs)])
        assert_array_equal(curves[2], curves[1])
        assert_array_equal(curves[3], curves[1])

    # Bandwidths where a GEMM row's bits depend on the tile's height. 34 runs
    # x 300 steps: two chunks of 17 runs, 17 x 250 = 4250 draws per step
    @pytest.mark.parametrize("f", [180, 203])
    def test_curves_equal_across_lane_counts_off_the_grid(self, monkeypatch, f):
        band = random_orthonormal(260, f, seed=f)
        rng = np.random.default_rng(f)
        model = SignalModel(band=band, s_f=rng.standard_normal(f),
                            sampling=SamplingSet(indices=range(250), n=260),
                            noise=NoiseModel(c_w=rng.uniform(0.01, 0.1, 260)))
        curves = {}
        for count in (1, 2, 3):
            self.lanes(monkeypatch, count, estimators._LANE_MIN_DRAWS)  # the gate as it is
            assert estimators.row_schedule(34, 300, 250, False).lanes == min(count, 2)
            curves[count] = lms_msd_trajectory(model, 0.3, 300,
                                               [run_rng(42, r) for r in range(34)])
        assert_array_equal(curves[2], curves[1])
        assert_array_equal(curves[3], curves[1])

    def test_case1_lms_row_two_lanes_equal_one(self, monkeypatch):
        _, _, config = reference_grid(["lms"], ["iii"], 50, 42)[0]
        model = prepare_experiment(config)
        curves = {}
        for count in (1, 2):
            self.lanes(monkeypatch, count, estimators._LANE_MIN_DRAWS)  # the gate as it is
            assert estimators.row_schedule(50, 1000, 210, False).lanes == count
            curves[count] = lms_msd_trajectory(model, config.param, 1000,
                                               [run_rng(42, r) for r in range(50)])
        assert_array_equal(curves[2], curves[1])

    @pytest.mark.parametrize("failing", [None, 0, 19, "start"],
                             ids=["none", "lane-0", "lane-1", "thread-start"])
    def test_blas_thread_count_is_restored(self, setup10, monkeypatch, failing):
        self.lanes(monkeypatch, 2)
        before, seen = estimators._blas_threads(), []
        rngs = [run_rng(42, r) for r in range(20)]
        if failing is None:
            lms_msd_trajectory(setup10, 0.5, 60, rngs)
        elif failing == "start":
            def refuse(thread):
                seen.append(estimators._blas_threads())
                raise RuntimeError("can't start new thread")

            monkeypatch.setattr(threading.Thread, "start", refuse)
            with pytest.raises(RuntimeError, match="can't start new thread"):
                lms_msd_trajectory(setup10, 0.5, 60, rngs)
            assert seen == [1]
        else:
            rngs[failing] = FailingStream(seen)
            with pytest.raises(RuntimeError, match="this lane failed"):
                lms_msd_trajectory(setup10, 0.5, 60, rngs)
            assert seen == [1]  # held at one thread while the lanes ran
        assert estimators._blas_threads() == before

    def test_gate(self, monkeypatch):
        self.lanes(monkeypatch, 2, estimators._LANE_MIN_DRAWS)
        # runs, iterations, m: the grid's LMS and RLS rows, the largest
        # sampling-sweep row and a c03 row; draws per step of a chunk
        assert estimators.row_schedule(50, 1000, 210, False).lanes == 2  # 25 x 210 = 5250 draws
        assert estimators.row_schedule(50, 200, 210, False).lanes == 1  # 13 x 210 = 2730
        assert estimators.row_schedule(30, 200, 240, False).lanes == 1  # 10 x 240 = 2400
        assert estimators.row_schedule(10_000, 200, 6, False).lanes == 1  # 14 x 6 = 84
        assert estimators.row_schedule(50, 1000, 210, True).lanes == 1  # frozen noise draws once
        assert estimators.row_schedule(31, 1000, 4096, False).lanes == 1  # one chunk
        self.lanes(monkeypatch, 1, estimators._LANE_MIN_DRAWS)
        assert estimators.row_schedule(50, 1000, 210, False).lanes == 1

    @pytest.mark.parametrize("min_draws, want", [(0, 1), (estimators._LANE_MIN_DRAWS, 2)],
                             ids=["splits", "under-the-gate"])
    def test_blas_threads_follow_the_row_not_the_cpus(self, setup10, monkeypatch, min_draws,
                                                      want):
        # one usable CPU: a row that splits still runs at one BLAS thread
        self.lanes(monkeypatch, 1, min_draws)
        get_threads, set_threads = estimators._openblas()
        before, seen = get_threads(), []
        set_threads(2)
        try:
            lms_msd_trajectory(setup10, 0.5, 60,
                               [FailingStream(seen, run_rng(42, r)) for r in range(20)])
            assert set(seen) == {want}
            assert estimators._blas_threads() == 2
        finally:
            set_threads(before)

    def test_row_under_the_gate_starts_no_thread(self, setup10, monkeypatch):
        self.lanes(monkeypatch, 2, estimators._LANE_MIN_DRAWS)

        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        lms_msd_trajectory(setup10, 0.5, 1000, [run_rng(42, r) for r in range(50)])

    def test_tile_product_rows_do_not_depend_on_height_or_blas_threads(self):
        get_threads, set_threads = estimators._openblas()
        rng = np.random.default_rng(5)
        z, noise_map = rng.standard_normal((961, 210)), rng.standard_normal((210, 200))
        want = z @ noise_map
        before = get_threads()
        try:
            for threads in (1, 2):
                set_threads(threads)
                assert_array_equal(z @ noise_map, want)
                assert_array_equal(z[:256] @ noise_map, want[:256])
        finally:
            set_threads(before)


TRAJECTORIES = pytest.mark.parametrize("trajectory, param", [
    (lms_msd_trajectory, 0.5),
    (rls_msd_trajectory, 0.7),
], ids=["lms", "rls"])


class TestNoiseStream:
    """A run draws m normals per step, one per sampled node, and nothing for
    the nodes its estimator never sees."""

    @pytest.mark.parametrize("n_iter", [2, 17, 60])
    @pytest.mark.parametrize("frozen", [False, True], ids=["iid", "frozen"])
    @TRAJECTORIES
    def test_each_run_consumes_its_sampled_draws(self, setup10, trajectory, param,
                                                 frozen, n_iter):
        model = setup10
        m = model.sampling.size
        seeds = range(200, 209)
        rngs = [np.random.default_rng(s) for s in seeds]
        trajectory(model, param, n_iter, rngs, frozen_noise=frozen)
        used = m if frozen else (n_iter - 1) * m
        for rng, seed in zip(rngs, seeds):
            fresh = np.random.default_rng(seed)
            fresh.standard_normal(used)
            assert_array_equal(rng.standard_normal(8), fresh.standard_normal(8))

    @pytest.mark.parametrize("frozen", [False, True], ids=["iid", "frozen"])
    @TRAJECTORIES
    def test_unsampled_variances_do_not_move_the_curves(self, setup10, trajectory, param,
                                                        frozen):
        model = setup10
        mask = sampling_mask(model.sampling)
        assert not mask.all()
        c_w = np.where(mask, model.noise.c_w, 7.0 * model.noise.c_w + 3.0)
        other = replace(model, noise=NoiseModel(c_w=c_w))
        assert not np.array_equal(other.noise.c_w, model.noise.c_w)

        def per_run(m):
            rngs = [run_rng(42, r) for r in range(9)]
            return trajectory(m, param, 30, rngs, frozen_noise=frozen)

        assert_array_equal(per_run(other), per_run(model))

    @pytest.mark.parametrize("init, step, param", [
        (lms_init, lms_step, 0.5),
        (rls_init, rls_step, 0.7),
    ], ids=["lms", "rls"])
    def test_steps_ignore_off_sample_noise(self, setup10, init, step, param):
        model = setup10
        mask = sampling_mask(model.sampling)
        rng = np.random.default_rng(31)
        full = sampled = init(model, param)
        for _ in range(10):
            w = draw_noise(model.noise, rng)
            assert np.any(w[~mask] != 0)
            full = step(full, model, w)
            sampled = step(sampled, model, np.where(mask, w, 0.0))
            assert_array_equal(full.s_hat, sampled.s_hat)


class TestContraction:
    @given(
        coeffs=st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=4),
        mu_frac=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40)
    def test_noise_free_lms_step_contracts(self, setup10, coeffs, mu_frac):
        # inside the stable range every noise-free step shrinks the error
        model = setup10
        mu_max = model.mu_max
        s_hat = model.s_f + np.asarray(coeffs)
        err0 = msd(model, s_hat)
        state = LmsState(s_hat=s_hat, mu=mu_frac * mu_max, t=1)
        err1 = msd(model, lms_step(state, model, np.zeros(model.n)).s_hat)
        assert err1 <= err0 + 1e-12


# Parameters tried against every entry of the table: each door must accept
# or refuse each of them alike, with the same message.
CANDIDATES = (math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, 1.5)


def model_door(model, algorithm, param):
    """The message SignalModel.recursion refuses (algorithm, param) with, or None."""
    try:
        model.recursion(algorithm, param)
    except ValueError as exc:
        return str(exc)
    return None


def config_door(algorithm, param, **overrides):
    """Every message the ten-station config's construction gives."""
    try:
        ExperimentConfig(**{**SMALL_CONFIG, "algorithm": algorithm, "param": param,
                            **overrides})
    except ConfigError as exc:
        return exc.errors
    return []


class TestEstimatorTable:
    """One rule, two doors: the config and the model read the same record."""

    @pytest.mark.parametrize("algorithm", sorted(ESTIMATORS))
    def test_both_doors_refuse_a_parameter_with_one_message(self, setup10, algorithm):
        refused = 0
        for param in CANDIDATES:
            message = model_door(setup10, algorithm, param)
            assert config_door(algorithm, param) == ([] if message is None else [message]), param
            refused += message is not None
        assert 0 < refused < len(CANDIDATES)

    @pytest.mark.parametrize("algorithm", sorted(ESTIMATORS))
    def test_run_exits_2_naming_the_parameter(self, tmp_path, capsys, setup10, algorithm):
        est = ESTIMATORS[algorithm]
        param = next(p for p in CANDIDATES
                     if math.isfinite(p) and model_door(setup10, algorithm, p) is not None)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**SMALL_CONFIG, "algorithm": algorithm,
                                           "param": param}))
        code = main(["run", str(config_path), "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err
        assert code == 2
        assert est.param_name in err and est.rule in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("algorithm", sorted(ESTIMATORS))
    def test_positive_noise_rule_holds_at_both_doors(self, setup10, algorithm):
        param = next(p for p in CANDIDATES if model_door(setup10, algorithm, p) is None)
        quiet = replace(setup10, noise=build_cw(0.0, 0.0, setup10.n, 0))
        refused_by_model = model_door(quiet, algorithm, param) is not None
        refused_by_config = bool(config_door(algorithm, param, scenario=(0.0, 0.0)))
        assert refused_by_model == refused_by_config == ESTIMATORS[algorithm].positive_noise

    @pytest.mark.parametrize("name", ["nlms", "LMS", ["lms"]])
    def test_unknown_algorithm_lists_the_table_at_both_doors(self, setup10, name):
        messages = config_door(name, 0.5)
        if isinstance(name, str):  # the model door takes names only
            messages.append(model_door(setup10, name, 0.5))
        assert messages and all(m == messages[0] for m in messages)
        assert all(repr(key) in messages[0] for key in ESTIMATORS)

    def test_lms_accepts_mu_from_zero_at_both_doors(self, setup10):
        # the model took a negative step and the config refused mu = 0; both
        # now hold 0 <= mu, where mu = 0 (no update) keeps the MSD constant
        for door in (lambda mu: lms_theory_exact(setup10, mu, 5),
                     lambda mu: lms_msd_trajectory(setup10, mu, 5, [np.random.default_rng(0)])):
            with pytest.raises(ValueError, match="step size must be finite and satisfy mu >= 0"):
                door(-0.1)
        result = run_experiment(ExperimentConfig(**{**SMALL_CONFIG, "param": 0.0,
                                                    "iterations": 20}))
        energy = float(setup10.s_f @ setup10.s_f)
        assert_allclose(result.msd_mean, energy, rtol=1e-12)
        assert_allclose(result.theory_exact.values, energy, rtol=1e-12)
