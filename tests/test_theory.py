"""Closed-form transient curves checked against direct matrix evaluation.

Every fast curve in the library is recomputed here the slow way: explicit
matrix powers, explicit covariance recursions, explicit Frobenius norms.
Agreement to near machine precision is the main correctness argument.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gspest import (
    BandBasis,
    ExperimentConfig,
    NoiseModel,
    SignalModel,
    TheoryCurve,
    lms_msd_trajectory,
    lms_theory_exact,
    lms_theory_paper,
    prepare_experiment,
    rls_gain_matrix,
    rls_theory_exact,
    rls_theory_paper,
)
from gspest.estimators import ErrorRecursion
from gspest.sampling import SamplingSet, sampled_gram
from gspest.theory import _BLOCK, _noise_energy, _transient, limits

from conftest import random_orthonormal
from oracle import sampling_mask, solve_lms_lyapunov


def model_parts(m):
    return m.band, m.sampling, m.s_f, m.noise.c_w


def with_noise(model, c_w):
    return replace(model, noise=NoiseModel(c_w))


def injected_covariance(band, sampling, c_w, mu):
    sel = list(sampling.indices)
    u_s = band.u_f[sel, :]
    return (mu**2) * (u_s.T @ (u_s * np.asarray(c_w, dtype=float)[sel, None]))


def naive_lms_paper(band, sampling, s_f, c_w, mu, t_max):
    """Literal transient expression via matrix powers: decaying bias, cross
    term with the substituted noise vector, squared frozen-noise response."""
    gram = sampled_gram(band, sampling)
    a_mat = np.eye(band.f) - mu * gram
    gram_inv = np.linalg.inv(gram)
    d_s = np.diag(sampling_mask(sampling).astype(float))
    root = np.sqrt(np.asarray(c_w, dtype=float))
    out = np.empty(t_max)
    for t in range(1, t_max + 1):
        a_pow = np.linalg.matrix_power(a_mat, t - 1)
        bias = a_pow @ s_f
        resp = gram_inv @ (a_pow - np.eye(band.f)) @ band.u_f.T @ d_s
        cross = 2.0 * float(bias @ (resp @ root))
        quad = float(np.sum((resp * root[None, :]) ** 2))  # Frobenius norm
        out[t - 1] = float(bias @ bias) + cross + quad
    return out


def naive_lms_exact(band, sampling, s_f, c_w, mu, t_max):
    """Error covariance recursion with dense matrices."""
    gram = sampled_gram(band, sampling)
    a_mat = np.eye(band.f) - mu * gram
    q_mat = injected_covariance(band, sampling, c_w, mu)
    p_mat = np.outer(s_f, s_f)
    out = np.empty(t_max)
    for t in range(t_max):
        out[t] = float(np.trace(p_mat))
        p_mat = a_mat @ p_mat @ a_mat.T + q_mat
    return out


def naive_rls_paper(band, sampling, s_f, c_w, lam, t_max):
    """Literal transient expression with the gain matrix built by inversion
    and the response term as an explicit Frobenius norm."""
    c_w = np.asarray(c_w, dtype=float)
    sel = list(sampling.indices)
    u_s = band.u_f[sel, :]
    m_mat = np.linalg.inv(u_s.T @ (u_s / c_w[sel, None]))
    resp = m_mat @ u_s.T @ np.diag(1.0 / np.sqrt(c_w[sel]))
    cross = float(s_f @ (resp @ np.ones(len(sel))))
    quad = float(np.sum(resp**2))
    energy = float(s_f @ s_f)
    out = np.empty(t_max)
    for t in range(1, t_max + 1):
        lp = lam ** (t - 1)
        out[t - 1] = lp**2 * energy + 2 * (lp - 1) * lp * cross + (lp - 1) ** 2 * quad
    return out


def naive_rls_exact(band, sampling, s_f, c_w, lam, t_max):
    m_mat = rls_gain_matrix(band, sampling, np.asarray(c_w, dtype=float))
    trace = float(np.trace(m_mat))
    val = float(s_f @ s_f)
    out = np.empty(t_max)
    for t in range(t_max):
        out[t] = val
        val = lam**2 * val + (1 - lam) ** 2 * trace
    return out


class TestCurveStart:
    def test_all_modes_start_at_signal_energy(self, setup10):
        energy = float(setup10.s_f @ setup10.s_f)
        for curve in (
            lms_theory_paper(setup10, 0.5, 10),
            lms_theory_exact(setup10, 0.5, 10),
            rls_theory_paper(setup10, 0.7, 10),
            rls_theory_exact(setup10, 0.7, 10),
        ):
            assert_allclose(curve.values[0], energy, rtol=1e-10)
            assert curve.values.shape == (10,)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            TheoryCurve(mode="nope", values=np.ones(3))
        with pytest.raises(ValueError):
            TheoryCurve(mode="paper", values=np.empty(0))


class TestLmsCurves:
    def test_paper_matches_matrix_evaluation(self, setup10):
        band, sampling, s_f, c_w = model_parts(setup10)
        for mu in (0.3, 0.5, 1.2):
            fast = lms_theory_paper(setup10, mu, 60).values
            slow = naive_lms_paper(band, sampling, s_f, c_w, mu, 60)
            assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_exact_matches_covariance_recursion(self, setup10):
        band, sampling, s_f, c_w = model_parts(setup10)
        for mu in (0.3, 0.5, 1.2):
            fast = lms_theory_exact(setup10, mu, 60).values
            slow = naive_lms_exact(band, sampling, s_f, c_w, mu, 60)
            assert_allclose(fast, slow, rtol=1e-10)

    def test_noise_free_modes_coincide(self, setup10):
        quiet = with_noise(setup10, np.zeros(setup10.n))
        paper = lms_theory_paper(quiet, 0.5, 40).values
        exact = lms_theory_exact(quiet, 0.5, 40).values
        assert_allclose(paper, exact, rtol=1e-12)

    def test_mu_zero_is_constant(self, setup10):
        energy = float(setup10.s_f @ setup10.s_f)
        assert_allclose(lms_theory_paper(setup10, 0.0, 20).values, energy, rtol=1e-12)
        assert_allclose(lms_theory_exact(setup10, 0.0, 20).values, energy, rtol=1e-12)

    def test_rejects_nonrecoverable_sampling(self, setup10):
        bad = SamplingSet(indices=(0, 1), n=setup10.n)
        with pytest.raises(ValueError):
            lms_theory_paper(replace(setup10, sampling=bad), 0.5, 10)

    def test_unstable_step_is_allowed_and_grows(self, setup10):
        curve = lms_theory_exact(setup10, 1.05 * setup10.mu_max, 400).values
        assert curve[-1] > 1e3 * curve[0]

    def test_exact_converges_monotonically_near_tail(self, setup10):
        steady = limits(setup10.recursion("lms", 0.5))["exact"]
        curve = lms_theory_exact(setup10, 0.5, 300).values
        gap = np.abs(curve - steady)
        assert np.all(np.diff(gap[50:]) <= 1e-12 * steady)


class TestLmsSteadyState:
    def test_exact_matches_lyapunov_trace(self, setup10):
        band, sampling, _, c_w = model_parts(setup10)
        p_inf = solve_lms_lyapunov(band, sampling, c_w, 0.5)
        assert_allclose(limits(setup10.recursion("lms", 0.5))["exact"], np.trace(p_inf),
                        rtol=1e-12)

    def test_lyapunov_residual(self, setup10):
        band, sampling, _, c_w = model_parts(setup10)
        mu = 0.5
        p_inf = solve_lms_lyapunov(band, sampling, c_w, mu)
        gram = sampled_gram(band, sampling)
        a_mat = np.eye(band.f) - mu * gram
        q_mat = injected_covariance(band, sampling, c_w, mu)
        resid = p_inf - (a_mat @ p_inf @ a_mat.T + q_mat)
        rel = np.linalg.norm(resid, "fro") / np.linalg.norm(p_inf, "fro")
        assert rel < 1e-12

    def test_lyapunov_rejects_unstable_step(self, setup10):
        band, sampling, _, c_w = model_parts(setup10)
        mu_max = setup10.mu_max
        with pytest.raises(ValueError):
            solve_lms_lyapunov(band, sampling, c_w, 1.01 * mu_max)

    def test_exact_matches_curve_tail(self, setup10):
        steady = limits(setup10.recursion("lms", 0.5))["exact"]
        curve = lms_theory_exact(setup10, 0.5, 4000).values
        assert_allclose(curve[-1], steady, rtol=1e-9)

    def test_paper_mode_matches_curve_tail(self, setup10):
        steady = limits(setup10.recursion("lms", 0.5))["paper"]
        curve = lms_theory_paper(setup10, 0.5, 4000).values
        assert_allclose(curve[-1], steady, rtol=1e-9)

    def test_paper_mode_equals_weighted_trace(self, setup10):
        # the frozen-noise limit is the reconstruction operator applied to
        # the covariance, computable by direct matrix algebra
        band, sampling, _, c_w = model_parts(setup10)
        gram_inv = np.linalg.inv(sampled_gram(band, sampling))
        d_s = np.diag(sampling_mask(sampling).astype(float))
        mid = band.u_f.T @ d_s @ np.diag(c_w) @ d_s @ band.u_f
        want = float(np.trace(gram_inv @ mid @ gram_inv))
        got = limits(setup10.recursion("lms", 0.5))["paper"]
        assert_allclose(got, want, rtol=1e-10)

    def test_flat_spectrum_closed_form(self):
        # full sampling and uniform variance decouple the modes: the limit is
        # f * mu * sigma^2 / (2 - mu)
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        band = BandBasis(f=2, u_f=q)
        sampling = SamplingSet(indices=tuple(range(6)), n=6)
        sigma_sq, mu = 0.3, 0.7
        flat = SignalModel(band=band, s_f=np.zeros(2), sampling=sampling,
                           noise=NoiseModel(np.full(6, sigma_sq)))
        got = limits(flat.recursion("lms", mu))["exact"]
        assert_allclose(got, 2 * mu * sigma_sq / (2 - mu), rtol=1e-12)

    def test_zero_noise_limit_is_zero(self, setup10):
        quiet = with_noise(setup10, np.zeros(setup10.n))
        assert limits(quiet.recursion("lms", 0.5))["exact"] == 0.0
        assert limits(quiet.recursion("lms", 0.5))["paper"] == 0.0

    def test_unstable_step_rejected(self, setup10):
        with pytest.raises(ValueError):
            limits(setup10.recursion("lms", 1.01 * setup10.mu_max))["exact"]


class TestRlsCurves:
    def test_paper_matches_matrix_evaluation(self, setup10):
        band, sampling, s_f, c_w = model_parts(setup10)
        for lam in (0.55, 0.7, 0.9):
            fast = rls_theory_paper(setup10, lam, 60).values
            slow = naive_rls_paper(band, sampling, s_f, c_w, lam, 60)
            assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_paper_frobenius_term_equals_gain_trace(self, setup10):
        # identity used by the fast path: the squared response norm collapses
        # to the trace of the gain matrix
        band, sampling, _, c_w = model_parts(setup10)
        sel = list(sampling.indices)
        u_s = band.u_f[sel, :]
        m_mat = rls_gain_matrix(band, sampling, c_w)
        resp = m_mat @ u_s.T @ np.diag(1.0 / np.sqrt(c_w[sel]))
        assert_allclose(np.sum(resp**2), np.trace(m_mat), rtol=1e-11)

    def test_exact_matches_recursion(self, setup10):
        band, sampling, s_f, c_w = model_parts(setup10)
        for lam in (0.55, 0.7, 0.9):
            fast = rls_theory_exact(setup10, lam, 120).values
            slow = naive_rls_exact(band, sampling, s_f, c_w, lam, 120)
            assert_allclose(fast, slow, rtol=1e-11)

    def test_lambda_one_is_constant(self, setup10):
        energy = float(setup10.s_f @ setup10.s_f)
        assert_allclose(rls_theory_paper(setup10, 1.0, 30).values, energy, rtol=1e-12)
        assert_allclose(rls_theory_exact(setup10, 1.0, 30).values, energy, rtol=1e-12)

    def test_rejects_zero_variance(self, setup10):
        quiet = with_noise(setup10, np.zeros(setup10.n))
        with pytest.raises(ValueError):
            rls_theory_paper(quiet, 0.7, 10)
        with pytest.raises(ValueError):
            rls_theory_exact(quiet, 0.7, 10)

    def test_rejects_bad_lambda(self, setup10):
        with pytest.raises(ValueError):
            rls_theory_exact(setup10, 0.0, 10)
        with pytest.raises(ValueError):
            rls_theory_exact(setup10, 1.5, 10)


class TestRlsSteadyState:
    def test_paper_mode_is_lambda_invariant(self, setup10):
        band, sampling, _, c_w = model_parts(setup10)
        vals = [limits(setup10.recursion("rls", lam))["paper"] for lam in (0.3, 0.6, 0.9)]
        assert vals[0] == vals[1] == vals[2]
        m_mat = rls_gain_matrix(band, sampling, c_w)
        assert_allclose(vals[0], np.trace(m_mat), rtol=1e-12)

    def test_exact_mode_formula(self, setup10):
        band, sampling, _, c_w = model_parts(setup10)
        m_mat = rls_gain_matrix(band, sampling, c_w)
        for lam in (0.55, 0.85):
            want = (1 - lam) / (1 + lam) * float(np.trace(m_mat))
            assert_allclose(limits(setup10.recursion("rls", lam))["exact"], want, rtol=1e-12)

    def test_exact_mode_matches_recursion_fixed_point(self, setup10):
        band, sampling, s_f, c_w = model_parts(setup10)
        lam = 0.7
        tail = naive_rls_exact(band, sampling, s_f, c_w, lam, 400)[-1]
        assert_allclose(limits(setup10.recursion("rls", lam))["exact"], tail, rtol=1e-10)

    def test_lambda_one_rejected(self, setup10):
        with pytest.raises(ValueError):
            limits(setup10.recursion("rls", 1.0))["exact"]


@pytest.fixture(scope="module")
def case1():
    """The 299-station case-1 experiment: k = 8, f = 200, greedy m = 210,
    scenario (iii) noise at master seed 42."""
    return prepare_experiment(ExperimentConfig(
        algorithm="lms", param=0.43, k=8, bandwidth=200, sample_size=210, scenario="iii",
        iterations=60, runs=1, master_seed=42))


class TestFullScale:
    # Tolerance relative to the curve maximum, not pointwise: the literal
    # RLS curve crosses zero mid-transient, where any rounding is large
    # relative to the value itself (about 1e-12 pointwise at lam = 0.85).
    @pytest.mark.parametrize("fast, slow, param", [
        (lms_theory_paper, naive_lms_paper, 0.43),
        (lms_theory_paper, naive_lms_paper, 1.57),
        (lms_theory_exact, naive_lms_exact, 0.43),
        (lms_theory_exact, naive_lms_exact, 1.57),
        (rls_theory_paper, naive_rls_paper, 0.61),
        (rls_theory_paper, naive_rls_paper, 0.85),
        (rls_theory_exact, naive_rls_exact, 0.61),
        (rls_theory_exact, naive_rls_exact, 0.85),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_case1_curves_match_matrix_evaluation(self, case1, fast, slow, param):
        band, sampling, s_f, c_w = model_parts(case1)
        got = fast(case1, param, 60).values
        want = slow(band, sampling, s_f, c_w, param, 60)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def unblocked_transient(rec, mode, t_max):
    """Either mode evaluated over every t at once: one cumprod of an f x t_max
    array of powers and one vector-matrix product per term."""
    base = rec.decay * rec.decay if mode == "exact" else rec.decay
    powers = np.ones((base.shape[0], t_max))
    powers[:, 1:] = base[:, None]
    np.cumprod(powers, axis=1, out=powers)
    with np.errstate(divide="ignore", invalid="ignore"):
        sums = (1.0 - powers) / (1.0 - base)[:, None]
    sums[np.abs(1.0 - base) < 1e-13, :] = np.arange(t_max, dtype=float)
    q = rec.c_s @ (rec.response * rec.response)
    if mode == "exact":
        return (rec.delta0**2) @ powers + (rec.step**2) * (q @ sums)
    ramp = rec.step * sums
    cross = rec.delta0 * (np.sqrt(rec.c_s) @ rec.response)
    return (rec.delta0**2) @ (powers**2) + 2.0 * (cross @ (powers * ramp)) + q @ (ramp**2)


def recursion_with_flat_coordinates(f, seed):
    """A recursion whose decays include 1 and -1: flat in the exact mode, and
    1 flat in the literal one too."""
    rng = np.random.default_rng(seed)
    decay = rng.uniform(-0.99, 0.99, f)
    decay[:3] = (1.0, -1.0, 1.0)
    return ErrorRecursion(decay=decay, step=0.3, response=rng.standard_normal((f + 10, f)),
                          delta0=rng.standard_normal(f), c_s=rng.uniform(0.1, 1.0, f + 10))


class TestBlockedCurves:
    """The curves are evaluated in blocks of t; each block must give exactly
    the numbers one evaluation over every t gives."""

    @pytest.mark.parametrize("t_max", [1, 255, 256, 257, 775])
    @pytest.mark.parametrize("mode", ["paper", "exact"])
    @pytest.mark.parametrize("f", [50, 200])
    def test_blocks_equal_one_unblocked_evaluation(self, f, mode, t_max):
        rec = recursion_with_flat_coordinates(f, seed=f)
        assert_array_equal(_transient(rec, mode, t_max), unblocked_transient(rec, mode, t_max))

    @pytest.mark.parametrize("curve", [lms_theory_paper, lms_theory_exact])
    def test_working_memory_does_not_grow_with_the_horizon(self, curve):
        # f = 50, T = 20 000: one f x T array of powers alone is 8 MB
        band = random_orthonormal(60, 50, seed=3)
        rng = np.random.default_rng(3)
        model = SignalModel(band=band, s_f=rng.standard_normal(50),
                            sampling=SamplingSet(indices=tuple(range(55)), n=60),
                            noise=NoiseModel(c_w=rng.uniform(0.01, 0.1, 60)))
        model.recursion("lms", 0.5)  # the Gram eigendecomposition is cached first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values = curve(model, 0.5, 20_000).values
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert values.shape == (20_000,)
        assert peak < 1_000_000, f"theory allocated {peak / 1e6:.1f} MB at its peak"

    @pytest.mark.parametrize("f, t_max", [(50, 20_000), (200, 5000)])
    @pytest.mark.parametrize("mode", ["paper", "exact"])
    def test_each_block_is_freed_before_the_next(self, mode, f, t_max):
        # a block holds up to f x (_BLOCK + 4) floats; holding the previous
        # block's powers, sums and ramp while the next is built would add two
        # or three blocks to the peak
        rec = recursion_with_flat_coordinates(f, seed=f)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _transient(rec, mode, t_max)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        blocks = (peak - 8 * t_max) / (8 * f * (_BLOCK + 4))
        assert blocks < 4.5, f"{mode} peaked at {blocks:.1f} blocks above its output"


class TestNearOne:
    """The partial sums (1 - b^t) / (1 - b) cancel as b -> 1; the noise term
    of the exact mode must still hold 1e-12 relative against 50-digit sums."""

    @pytest.mark.parametrize("algorithm, param", [("lms", 1e-7), ("rls", 1 - 1e-8),
                                                  ("lms", 1e-14), ("rls", 1 - 1e-14)])
    def test_noise_term_against_mpmath(self, setup10, algorithm, param):
        mpmath = pytest.importorskip("mpmath")
        rec = setup10.recursion(algorithm, param)
        rec = replace(rec, delta0=np.zeros_like(rec.delta0))  # the noise term alone
        t_max = 3000
        got = _transient(rec, "exact", t_max)
        with mpmath.workdps(50):
            step2 = mpmath.mpf(rec.step) ** 2
            terms = [(mpmath.mpf(q), mpmath.mpf(d) ** 2)
                     for q, d in zip(_noise_energy(rec), rec.decay)]
            want = np.array([float(step2 * sum(q * (1 - b**t) / (1 - b) for q, b in terms))
                             for t in range(1, t_max)])
        assert np.max(np.abs(got[1:] - want) / want) <= 1e-12


class TestErrorRecursion:
    @pytest.mark.parametrize("lam", [0.0, 1.5])
    def test_rejects_forgetting_factor_outside_unit_interval(self, setup10, lam):
        with pytest.raises(ValueError, match="forgetting factor"):
            setup10.recursion("rls", lam)

    def test_rejects_unknown_algorithm(self, setup10):
        with pytest.raises(ValueError, match="algorithm"):
            setup10.recursion("nlms", 0.5)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_step(self, setup10, mu):
        model = setup10
        with pytest.raises(ValueError, match="step size must be finite"):
            lms_theory_exact(model, mu, 5)
        with pytest.raises(ValueError, match="step size must be finite"):
            lms_msd_trajectory(model, mu, 5, [np.random.default_rng(0)])

    def test_built_per_call_and_read_only(self, setup10):
        rec = setup10.recursion("rls", 0.7)
        again = setup10.recursion("rls", 0.7)
        assert again is not rec
        assert again.step == rec.step
        for name in ("decay", "response", "delta0", "c_s"):
            assert_array_equal(getattr(again, name), getattr(rec, name))
        for arr in (rec.decay, rec.response, rec.delta0, rec.c_s):
            assert not arr.flags.writeable
        assert setup10.c_s.flags.writeable  # the views leave the model's arrays alone
