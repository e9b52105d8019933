"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with -v to get one pass/fail line per criterion. The checks cover, in
order: frozen-noise closed forms (1), the geometric-sum identity behind them
(2), exact-theory agreement with a large Monte Carlo oracle (3), the RLS
closed form against its recursion (4), full-scale reproduction of both
estimators on the 299-station setup (5, 6), the stability boundary (7),
trivial limits (8), steady-state formulas (9) and byte-level determinism of
the command line pipeline (10).

Checks 4 to 7 take the study grid's numbers from ``gspest.reference_grid``,
its one definition, which ``scripts/run_reference_cases.py`` also runs.

Criteria 5 and 6 each carry two clauses, and each theory mode is held to the
process it describes. The exact mode is the expectation of the redrawn-noise
("iid") run, and must sit within 3 Monte Carlo standard errors of that run's
tail. The literal mode describes a run whose noise vector is drawn once and
then reused, so it must sit within 2 dB of the tail of the same configuration
simulated with ``noise_protocol="frozen"``. Its gap to the redrawn-noise tail
is a parameter-dependent constant (3.1 to 10.9 dB on 21 of the 24 rows; for
RLS exactly 10*log10((1+lambda)/(1-lambda))); the failure message reports it
next to the asserted value, but it is not asserted.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gspest import (
    SCENARIOS,
    DeviationStats,
    ExperimentConfig,
    SignalModel,
    band_select,
    build_cw,
    build_knn_graph,
    gft_basis,
    greedy_max_lambda_min,
    laplacian,
    lms_msd_trajectory,
    lms_theory_exact,
    lms_theory_paper,
    prepare_experiment,
    random_sampling,
    reference_grid,
    rls_gain_matrix,
    rls_theory_exact,
    run_experiment,
    synthetic_stations,
)
from gspest.cli import main
from gspest.theory import limits

from oracle import draw_noise, lms_init, lms_step, rls_init, rls_step, solve_lms_lyapunov

MASTER_SEED = 42
FULL_RUNS = 50


def random_instance(seed, n=20, f=8, m=12):
    """One randomized estimation problem: basis, sampling, signal, noise."""
    rng = np.random.default_rng(seed)
    stations = synthetic_stations(n, seed)
    band = band_select(gft_basis(laplacian(build_knn_graph(stations, 3))), f)
    sampling = random_sampling(band, m, seed)
    s_f = rng.standard_normal(f)
    noise = build_cw(0.05, 0.05, n, seed)
    model = SignalModel(band=band, s_f=s_f, sampling=sampling, noise=noise)
    w = draw_noise(noise, rng)
    mu = float(rng.uniform(0.2, 1.8))
    lam = float(rng.uniform(0.5, 0.95))
    return model, w, mu, lam


@pytest.fixture(scope="module")
def stations299():
    return synthetic_stations(299, 2018)


@pytest.fixture(scope="module")
def bases299(stations299):
    return {k: gft_basis(laplacian(build_knn_graph(stations299, k)))
            for k in dict.fromkeys(config.k for _, _, config
                                   in reference_grid(["lms"], ["iii"], 1, MASTER_SEED))}


def full_scale_rows(algorithm, stations, bases):
    """Run the reference grid's rows of one estimator under both noise
    protocols.

    Returns rows of (case, scenario, param, iid stats, frozen stats) and the
    per-case wall time of the redrawn-noise grid alone; the frozen-noise
    reruns sit outside the timed window.
    """
    rows = []
    durations = {}
    grid = reference_grid([algorithm], SCENARIOS, FULL_RUNS, MASTER_SEED)
    for case in dict.fromkeys(case for _, case, _ in grid):
        configs = [config for _, row_case, config in grid if row_case == case]
        basis = bases[configs[0].k]
        started = time.monotonic()
        iid = [run_experiment(config, stations, basis).deviation for config in configs]
        durations[case] = time.monotonic() - started
        for config, iid_dev in zip(configs, iid):
            frozen = replace(config, noise_protocol="frozen")
            frozen_dev = run_experiment(frozen, stations, basis).deviation
            rows.append((case, config.scenario, config.param, iid_dev, frozen_dev))
    return rows, durations


def deviation_table(rows):
    lines = [f"{'case':>4} {'scn':>4} {'param':>6} {'literal_vs_frozen_dB':>21} "
             f"{'literal_vs_iid_dB':>18} {'exact_mean_dB':>14} {'exact_tail_z':>13}"]
    for case, scenario, param, iid, frozen in rows:
        lines.append(f"{case:>4} {scenario:>4} {param:>6} "
                     f"{frozen.paper_mean_abs_db:>21.3f} {iid.paper_mean_abs_db:>18.3f} "
                     f"{iid.exact_mean_abs_db:>14.3f} {iid.exact_tail_z:>13.2f}")
    return "\n".join(lines)


def assert_both_clauses(rows, durations, budget_seconds):
    for case, duration in durations.items():
        assert duration < budget_seconds, (
            f"case {case} took {duration:.1f}s, budget {budget_seconds}s")
    # Both clauses are written as "not within bound" so that a NaN deviation
    # or z-score fails its row instead of passing every comparison.
    # exact mode first: every redrawn-noise row within 3 Monte Carlo standard errors
    bad_exact = [(c, s, p) for c, s, p, iid, _ in rows if not iid.exact_tail_z <= 3.0]
    assert not bad_exact, (
        "exact theory outside 3 standard errors on rows "
        f"{bad_exact}\n{deviation_table(rows)}")
    # literal mode second: tail mean absolute deviation from the frozen-noise
    # run within 2 dB; the literal-vs-iid column is reported, not asserted
    bad_literal = [(c, s, p) for c, s, p, _, frozen in rows
                   if not frozen.paper_mean_abs_db <= 2.0]
    assert not bad_literal, (
        "literal theory tail deviation from the frozen-noise run above 2 dB "
        f"on rows {bad_literal}\n" + deviation_table(rows))


def test_nonfinite_deviation_fails_its_clause():
    """A NaN z-score or literal deviation fails its row rather than slipping
    past a ">" comparison."""
    fine = DeviationStats(burn_in_fraction=0.5, n_tail=10, paper_max_abs_db=0.1,
                          paper_mean_abs_db=0.1, paper_n_nonfinite=0, exact_max_abs_db=0.1,
                          exact_mean_abs_db=0.1, exact_n_nonfinite=0, tail_se_db=0.1,
                          exact_tail_z=1.0)
    durations = {1: 0.0}
    assert_both_clauses([(1, "i", 0.5, fine, fine)], durations, budget_seconds=1.0)
    nan_z = replace(fine, exact_tail_z=float("nan"))
    with pytest.raises(AssertionError, match="exact theory"):
        assert_both_clauses([(1, "i", 0.5, nan_z, fine)], durations, budget_seconds=1.0)
    nan_literal = replace(fine, paper_mean_abs_db=float("nan"))
    with pytest.raises(AssertionError, match="literal theory"):
        assert_both_clauses([(1, "i", 0.5, fine, nan_literal)], durations,
                            budget_seconds=1.0)


class TestAcceptance:
    def test_c01_frozen_noise_recursions_match_closed_forms(self):
        """Stepping each estimator with one fixed noise vector reproduces its
        closed-form error trajectory to 1e-10 on 20 random instances."""
        started = time.monotonic()
        worst = 0.0
        for seed in range(20):
            model, w, mu, lam = random_instance(seed)
            sel = list(model.sampling.indices)
            u_sel = model.band.u_f[sel]
            gram = u_sel.T @ u_sel
            a_mat = np.eye(model.band.f) - mu * gram
            driven = u_sel.T @ w[sel]

            lms_state = lms_init(model, mu)
            rls_state = rls_init(model, lam)
            whitened = rls_state.m_mat @ (u_sel.T @ (w[sel] / model.noise.c_w[sel]))
            a_pow = np.eye(model.band.f)  # A^(t-1), updated per step
            for t in range(1, 51):
                delta_lms = lms_state.s_hat - model.s_f
                closed_lms = -a_pow @ model.s_f - np.linalg.solve(
                    gram, (a_pow - np.eye(model.band.f)) @ driven)
                worst = max(worst, float(np.max(np.abs(delta_lms - closed_lms))))

                delta_rls = rls_state.s_hat - model.s_f
                closed_rls = -lam ** (t - 1) * model.s_f + (1 - lam ** (t - 1)) * whitened
                worst = max(worst, float(np.max(np.abs(delta_rls - closed_rls))))

                lms_state = lms_step(lms_state, model, w)
                rls_state = rls_step(rls_state, model, w)
                a_pow = a_pow @ a_mat
        assert worst <= 1e-10, f"max abs error {worst:.3e}"
        assert time.monotonic() - started < 1.0

    def test_c02_geometric_sum_equals_closed_form(self):
        """The accumulated forcing-term sum equals its matrix-inverse closed
        form to 1e-10 on the same 20 instances."""
        worst = 0.0
        for seed in range(20):
            model, w, mu, _ = random_instance(seed)
            sel = list(model.sampling.indices)
            u_sel = model.band.u_f[sel]
            gram = u_sel.T @ u_sel
            a_mat = np.eye(model.band.f) - mu * gram
            forcing = mu * (u_sel.T @ w[sel])

            k_sum = np.zeros(model.band.f)
            a_pow = np.eye(model.band.f)
            for _t in range(2, 51):
                k_sum = a_mat @ k_sum + forcing
                a_pow = a_pow @ a_mat
                closed = -np.linalg.solve(mu * gram, (a_pow - np.eye(model.band.f)) @ forcing)
                worst = max(worst, float(np.max(np.abs(k_sum - closed))))
        assert worst <= 1e-10, f"max abs error {worst:.3e}"

    def test_c03_exact_theory_within_monte_carlo_error_small_graph(self):
        """On the 10-station setup both exact theory curves stay within 3
        standard errors of a 10^4-run Monte Carlo average at every t."""
        started = time.monotonic()
        for algorithm, param in (("lms", 0.5), ("rls", 0.7)):
            config = ExperimentConfig(
                algorithm=algorithm, param=param, k=3, bandwidth=4, sample_size=6,
                scenario="iii", iterations=200, runs=10_000,
                master_seed=MASTER_SEED, n_stations=10)
            res = run_experiment(config, None, None)
            exact = res.theory_exact.values
            gap = np.abs(res.msd_mean - exact)
            # a zero-variance iteration (the deterministic start) must still
            # match, up to accumulated rounding
            deterministic = gap <= 1e-9 * exact
            within = gap <= 3.0 * res.msd_se
            bad = np.nonzero(~(within | deterministic))[0]
            assert bad.size == 0, (
                f"{algorithm}: exact theory outside 3 SE at t={res.t[bad][:10]}, "
                f"max z {np.max(gap[res.msd_se > 0] / res.msd_se[res.msd_se > 0]):.2f}")
        assert time.monotonic() - started < 30.0

    def test_c04_rls_exact_recursion_matches_analytic_formula(self):
        """Iterating the one-step error-energy recursion reproduces the
        analytic geometric-series expression to 1e-10 relative at the
        reference grid's four forgetting factors."""
        model, _, _, _ = random_instance(0)
        m_trace = float(np.trace(rls_gain_matrix(model.band, model.sampling,
                                                 model.noise.c_w)))
        energy = float(model.s_f @ model.s_f)
        lams = {config.param for _, _, config in reference_grid(["rls"], ["iii"], 1, MASTER_SEED)}
        for lam in sorted(lams):
            analytic = rls_theory_exact(model, lam, 400).values
            value = energy
            iterated = [value]
            for _t in range(399):
                value = lam ** 2 * value + (1 - lam) ** 2 * m_trace
                iterated.append(value)
            assert_allclose(iterated, analytic, rtol=1e-10,
                            err_msg=f"lam={lam}")

    def test_c05_lms_full_scale_reproduction(self, stations299, bases299):
        """Full-scale LMS runs, both cases, three noise scenarios, both step
        sizes: exact mode within 3 SE of the redrawn-noise tail, literal mode
        within 2 dB of the frozen-noise tail, and the redrawn-noise grid
        under the per-case time budget."""
        rows, durations = full_scale_rows("lms", stations299, bases299)
        assert_both_clauses(rows, durations, budget_seconds=120.0)

    def test_c06_rls_full_scale_reproduction(self, stations299, bases299):
        """Full-scale RLS runs, same grid with both forgetting factors:
        same two clauses against the same two noise protocols, tighter time
        budget."""
        rows, durations = full_scale_rows("rls", stations299, bases299)
        assert_both_clauses(rows, durations, budget_seconds=60.0)

    def test_c07_stability_boundary(self, stations299, bases299):
        """Just below the critical step size the exact curve converges; just
        above it the curve blows past 1000x the signal energy within 2000
        iterations."""
        _, _, case1 = reference_grid(["lms"], ["iii"], 1, MASTER_SEED)[0]  # the first row
        config = replace(case1, param=0.5, iterations=2)
        model = prepare_experiment(config, stations299, bases299[config.k])
        energy = float(model.s_f @ model.s_f)
        mu_max = model.mu_max
        below = lms_theory_exact(model, 0.99 * mu_max, 2000).values
        steady = limits(model.recursion("lms", 0.99 * mu_max))["exact"]
        assert np.isfinite(below).all()
        assert below.max() <= max(energy, steady) * (1 + 1e-12)
        assert abs(below[-1] - steady) <= 1e-9 * steady

        above = lms_theory_exact(model, 1.01 * mu_max, 2000).values
        assert np.any(above > 1e3 * energy)

    def test_c08_trivial_limits(self):
        """Unit forgetting factor, zero step size and zero noise all collapse
        the theory to its degenerate known value."""
        model, _, _, _ = random_instance(3)
        energy = float(model.s_f @ model.s_f)

        frozen_estimate = rls_theory_exact(model, 1.0, 300).values
        assert_allclose(frozen_estimate, energy, rtol=1e-12)

        no_step = lms_theory_exact(model, 0.0, 300).values
        assert_allclose(no_step, energy, rtol=1e-12)

        quiet = SignalModel(band=model.band, s_f=model.s_f,
                            sampling=model.sampling, noise=build_cw(0.0, 0.0, model.band.n, 0))
        theory = lms_theory_paper(quiet, 0.5, 200).values
        sim = lms_msd_trajectory(quiet, 0.5, 200, [np.random.default_rng(0)])[0]
        assert_allclose(theory, sim, rtol=1e-9)

    def test_c09_steady_state_formulas(self):
        """The RLS steady state equals its closed-form trace expression and
        the far tail of the curve; the LMS steady state solves its fixed-point
        equation to 1e-12 relative residual."""
        model, _, mu, _ = random_instance(5)
        c_w = model.noise.c_w
        m_trace = float(np.trace(rls_gain_matrix(model.band, model.sampling, c_w)))
        for lam in (0.7, 0.85):
            steady = limits(model.recursion("rls", lam))["exact"]
            assert_allclose(steady, (1 - lam) / (1 + lam) * m_trace, rtol=1e-12)
            tail = rls_theory_exact(model, lam, 10_000).values[-1]
            assert abs(tail - steady) <= 1e-9 * steady

        sel = list(model.sampling.indices)
        u_sel = model.band.u_f[sel]
        a_mat = np.eye(model.band.f) - mu * (u_sel.T @ u_sel)
        q_mat = mu ** 2 * (u_sel.T @ (c_w[sel, None] * u_sel))
        p_inf = solve_lms_lyapunov(model.band, model.sampling, c_w, mu)
        residual = np.linalg.norm(p_inf - (a_mat @ p_inf @ a_mat.T + q_mat))
        assert residual <= 1e-12 * np.linalg.norm(p_inf)
        assert_allclose(limits(model.recursion("lms", mu))["exact"],
                        float(np.trace(p_inf)), rtol=1e-12)

    def test_c10_byte_identical_reruns(self, tmp_path):
        """Identical config and master seed give byte-identical result CSVs
        over three reruns."""
        import json

        base = dict(algorithm="lms", param=0.5, k=3, bandwidth=4, sample_size=6,
                    scenario="iii", iterations=50, runs=8,
                    master_seed=MASTER_SEED, n_stations=10)
        outputs = []
        for tag in ("a", "b", "c"):
            config_path = tmp_path / f"{tag}.json"
            config_path.write_text(json.dumps(base))
            out = tmp_path / f"{tag}.csv"
            code = main(["run", str(config_path), "--out", str(out),
                         "--cache-dir", str(tmp_path / "cache")])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]
