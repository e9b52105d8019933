"""Experiment configuration, seeding, Monte Carlo averaging and comparison."""

import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gspest import (ConfigError, ExperimentConfig, build_knn_graph, compare, gft_basis,
                    laplacian, prepare_experiment, project_bandlimited, run_experiment)
from gspest import estimators, harness, sampling, theory
from gspest.harness import (
    covariance_seed,
    run_rng,
    sampling_seed,
    synthetic_stations,
)

from oracle import lms_init, lms_step, msd, sampled_noise, target_signal

BASE = dict(
    algorithm="lms",
    param=0.5,
    k=3,
    bandwidth=4,
    sample_size=6,
    scenario="iii",
    iterations=40,
    runs=6,
    master_seed=42,
    n_stations=10,
)


def config(**overrides):
    merged = {**BASE, **overrides}
    return ExperimentConfig(**merged)


class TestSyntheticStations:
    def test_shape_and_determinism(self):
        a = synthetic_stations(25, 2018)
        b = synthetic_stations(25, 2018)
        assert a.n == 25
        assert len(set(a.ids)) == 25
        assert_array_equal(a.coords, b.coords)
        assert_array_equal(a.signal, b.signal)

    def test_coordinates_plausible(self):
        st = synthetic_stations(50, 2018)
        assert np.all(st.coords[:, 0] >= -90) and np.all(st.coords[:, 0] <= 90)
        assert np.all(st.coords[:, 1] >= -180) and np.all(st.coords[:, 1] <= 180)

    def test_seed_changes_layout(self):
        a = synthetic_stations(25, 2018)
        b = synthetic_stations(25, 2019)
        assert np.any(a.coords != b.coords)


class TestConfigValidation:
    def test_collects_all_errors(self):
        with pytest.raises(ConfigError) as err:
            config(param=-1.0, k=0, runs=0)
        text = str(err.value)
        assert "step size" in text or "param" in text
        assert "k" in text
        assert "runs" in text
        assert text.count("\n- ") >= 3

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError) as err:
            config(algorithm="sgd")
        assert "algorithm" in str(err.value)

    def test_rls_rejects_zero_noise(self):
        with pytest.raises(ConfigError) as err:
            config(algorithm="rls", param=0.7, scenario=(0.0, 0.0))
        assert "covariance" in str(err.value)

    def test_lms_allows_zero_noise(self):
        config(scenario=(0.0, 0.0))

    def test_bad_protocol_and_workers(self):
        with pytest.raises(ConfigError):
            config(noise_protocol="warm")

    def test_node_count_checks(self):
        with pytest.raises(ConfigError):
            prepare_experiment(config(sample_size=11))
        with pytest.raises(ConfigError):
            prepare_experiment(config(bandwidth=20))

    @pytest.mark.parametrize("scenario", [(np.nan, 0.0), (np.inf, 0.05), (0.05, np.nan)])
    def test_non_finite_scenario_rejected(self, scenario):
        with pytest.raises(ConfigError, match="scenario coefficients must be finite"):
            config(scenario=scenario)

    @pytest.mark.parametrize("name", ["param", "k", "bandwidth", "sample_size", "iterations",
                                      "runs", "master_seed", "stations_seed", "n_stations"])
    def test_boolean_rejected_where_a_number_is_required(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be a number, not a boolean"):
            config(**{name: True})

    def test_every_boolean_reported(self):
        with pytest.raises(ConfigError) as err:
            config(algorithm="rls", param=True, runs=True, k=True, master_seed=False)
        assert len(err.value.errors) == 4
        assert all("boolean" in e for e in err.value.errors)

    def test_rls_param_range(self):
        with pytest.raises(ConfigError):
            config(algorithm="rls", param=1.5)

    def test_numpy_numbers_accepted_as_their_builtin_values(self):
        cfg = config(algorithm="rls", param=np.int64(1), k=np.int64(3), runs=np.int32(6),
                     scenario=(np.float32(0.5), np.int64(0)))
        assert (cfg.param, cfg.k, cfg.runs, cfg.scenario) == (1, 3, 6, (0.5, 0))
        assert [type(v) for v in (cfg.param, cfg.k, cfg.runs, *cfg.scenario)] == [
            float, int, int, float, int]

    @pytest.mark.parametrize("name", ["k", "runs"])
    def test_numpy_boolean_and_float_still_refused(self, name):
        for value in (np.bool_(True), np.float64(3.0)):
            with pytest.raises(ConfigError, match=f"{name} must be an integer >= 1"):
                config(**{name: value})

    def test_replace_checks_the_override(self):
        with pytest.raises(ConfigError, match="runs must be an integer >= 1, got 0"):
            replace(config(), runs=0)

    def test_overrides(self):
        cfg = replace(config(), master_seed=7, runs=99)
        assert cfg.master_seed == 7
        assert cfg.runs == 99
        assert cfg.param == BASE["param"]


class TestReferenceGrid:
    @pytest.mark.parametrize("algorithms, scenarios, message", [
        (["lms", "nlms"], ["iii"], "the reference grid has no algorithm 'nlms'"),
        (["rls"], ["iii", "iv"], "unknown scenario 'iv'"),
    ])
    def test_unknown_name_is_a_config_error(self, algorithms, scenarios, message):
        with pytest.raises(ConfigError, match=message):
            harness.reference_grid(algorithms, scenarios, 2, 42)

    def test_rows_carry_the_run_settings_and_station_source(self):
        rows = harness.reference_grid(["rls"], ["ii"], 3, 7, "/data/st.csv", 300)
        assert [stem for stem, _, _ in rows] == [
            "rls_case1_ii_p0.61", "rls_case1_ii_p0.85", "rls_case2_ii_p0.55", "rls_case2_ii_p0.79"]
        assert [case for _, case, _ in rows] == [1, 1, 2, 2]
        assert {(c.runs, c.master_seed, c.stations_csv, c.n_stations) for _, _, c in rows} == {
            (3, 7, "/data/st.csv", 300)}

    def test_station_count_limits_are_checked_once_each(self):
        with pytest.raises(ConfigError) as caught:
            harness.reference_grid(["lms", "rls"], ["i", "iii"], 2, 42, "/data/st.csv", 150)
        assert caught.value.errors == ["bandwidth (200) must be at most n (150)",
                                       "sample_size (210) must be at most n (150)",
                                       "bandwidth (160) must be at most n (150)"]


class TestSeedScheme:
    def test_streams_are_distinct_and_stable(self):
        assert covariance_seed(42) == covariance_seed(42)
        assert sampling_seed(42).spawn_key == sampling_seed(42).spawn_key
        a = run_rng(42, 0).standard_normal(4)
        b = run_rng(42, 0).standard_normal(4)
        c = run_rng(42, 1).standard_normal(4)
        assert_array_equal(a, b)
        assert np.any(a != c)

    def test_master_seed_changes_covariance(self):
        one = prepare_experiment(config(master_seed=1)).noise.c_w
        two = prepare_experiment(config(master_seed=2)).noise.c_w
        assert np.any(one != two)


class TestPrepareExperiment:
    def test_pipeline_shapes(self, setup10):
        assert setup10.n == 10
        assert setup10.band.f == 4
        assert setup10.sampling.size == 6
        assert setup10.s_f.shape == (4,)

    def test_target_signal_is_derived_and_read_only(self, setup10, stations10):
        assert_array_equal(target_signal(setup10),
                           project_bandlimited(setup10.band, stations10.signal)[1])
        assert not setup10.s_f.flags.writeable and not setup10.band.u_f.flags.writeable
        with pytest.raises(AttributeError):
            setup10.s_f = np.zeros(setup10.f)

    def test_zero_noise_scenario_uses_zero_covariance(self):
        model = prepare_experiment(config(scenario=(0.0, 0.0)))
        assert np.all(model.noise.c_w == 0)

    def test_random_strategy(self):
        model = prepare_experiment(config(sampling_strategy="random"))
        assert model.sampling.size == 6

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            prepare_experiment(config(sampling_strategy="spread"))

    def test_stations_override(self):
        st = synthetic_stations(12, 77)
        model = prepare_experiment(config(n_stations=12), stations=st)
        assert model.n == 12
        assert_array_equal(model.s_f, project_bandlimited(model.band, st.signal)[0])


class TestRunExperiment:
    def test_deterministic_across_calls(self):
        a = run_experiment(config())
        b = run_experiment(config())
        assert_array_equal(a.msd_mean, b.msd_mean)
        assert_array_equal(a.msd_se, b.msd_se)

    def test_seed_matters(self):
        a = run_experiment(config())
        b = run_experiment(config(master_seed=43))
        assert np.any(a.msd_mean != b.msd_mean)

    def test_mean_is_linear_then_converted(self):
        res = run_experiment(config())
        assert_allclose(res.msd_mean, res.per_run.mean(axis=0), rtol=1e-14)
        assert_allclose(res.msd_mean_db, 10 * np.log10(res.msd_mean), rtol=1e-12)
        # averaging decibel curves would give a different (biased) number
        db_of_mean = 10 * np.log10(res.per_run.mean(axis=0))
        mean_of_db = (10 * np.log10(res.per_run)).mean(axis=0)
        assert np.max(np.abs(db_of_mean - mean_of_db)) > 1e-3

    def test_standard_error_shrinks_with_runs(self):
        few = run_experiment(config(runs=50))
        many = run_experiment(config(runs=200))
        ratio = np.median(few.msd_se[5:] / many.msd_se[5:])
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_first_iteration_is_deterministic(self):
        res = run_experiment(config())
        s_f = prepare_experiment(config()).s_f
        energy = float(s_f @ s_f)
        assert_allclose(res.msd_mean[0], energy, rtol=1e-12)
        assert res.msd_se[0] < 1e-9 * energy

    def test_metadata_contents(self, setup10):
        res = run_experiment(config())
        md = res.metadata
        assert md["sampling_indices"] == list(setup10.sampling.indices)
        assert md["lambda_min"] > 1e-8
        assert md["mu_max"] > 0
        assert md["stable"] is True
        assert len(md["cw_digest"]) == 64

    def test_unstable_step_flagged_but_runs(self):
        probe = run_experiment(config(iterations=5))
        bad_mu = 1.3 * probe.metadata["mu_max"]
        with pytest.warns(RuntimeWarning, match="stability limit"):
            res = run_experiment(config(param=bad_mu, iterations=60, runs=2))
        assert res.metadata["stable"] is False
        # divergence study: the run completes and the tail has blown up
        assert res.msd_mean[-1] > 1e3 * res.msd_mean[0]

    def test_theory_curves_attached(self):
        res = run_experiment(config())
        assert res.theory_paper.mode == "paper"
        assert res.theory_exact.mode == "exact"
        assert res.theory_paper.values.shape == res.msd_mean.shape
        assert_allclose(res.theory_exact_db,
                        10 * np.log10(res.theory_exact.values), rtol=1e-12)

    def test_rls_runs(self):
        res = run_experiment(config(algorithm="rls", param=0.7, iterations=30))
        assert res.msd_mean.shape == (30,)
        assert np.isfinite(res.msd_mean).all()

    @pytest.mark.parametrize("algorithm, param", [("lms", 0.5), ("rls", 0.7)])
    def test_one_decomposition_per_experiment(self, monkeypatch, stations10, setup10,
                                              algorithm, param):
        # the sampled Gram is eigendecomposed once and the RLS gain solved
        # once per experiment, not once per run
        basis = gft_basis(laplacian(build_knn_graph(stations10, BASE["k"])))
        monkeypatch.setattr(harness, "greedy_max_lambda_min", lambda band, m: setup10.sampling)
        counts = {"eig": 0, "solve": 0}

        def count(name, kind):
            original = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                counts[kind] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        for name, kind in (("eigh", "eig"), ("eigvalsh", "eig"), ("solve", "solve"),
                           ("inv", "solve")):
            count(name, kind)
        res = run_experiment(config(algorithm=algorithm, param=param, runs=8), basis=basis)
        assert res.metadata["sampling_indices"] == list(setup10.sampling.indices)
        assert counts["eig"] == 1
        assert counts["solve"] <= 1


    @pytest.mark.parametrize("algorithm, param", [("lms", 0.5), ("rls", 0.7)])
    def test_one_recursion_build_per_row(self, monkeypatch, algorithm, param):
        # both theory modes, the trajectory and the limit diagnostics share it
        record, built = estimators.ESTIMATORS[algorithm], []

        def build(model, value):
            built.append(value)
            return record.build(model, value)

        monkeypatch.setitem(estimators.ESTIMATORS, algorithm, replace(record, build=build))
        run_experiment(config(algorithm=algorithm, param=param))
        assert built == [param]


class RecordingStream:
    """A run stream that records the BLAS thread count at each draw, then
    draws from rng, or fails when told to."""

    def __init__(self, seen, rng, fail=False):
        self.seen, self.rng, self.fail = seen, rng, fail

    def standard_normal(self, out):
        self.seen.append(("draw", estimators._blas_threads()))
        if self.fail:
            raise RuntimeError("this lane failed")
        return self.rng.standard_normal(out=out)


@pytest.mark.skipif(estimators._openblas() is None, reason="no OpenBLAS thread control found")
class TestRowBlasHold:
    """A row whose Monte Carlo splits holds OpenBLAS at one thread from its
    sampling set to its last curve; the graph basis and the set run at the
    caller's count, which comes back after the row, also when it raises. On
    10 stations (m = 6) a gate of 150 draws splits the grid's LMS shape (50
    runs x 1000 steps: 2 chunks of 25 x 6 = 150 draws) and not its RLS shape
    (50 x 200: chunks of 13 x 6 = 78)."""

    SPLIT = dict(algorithm="lms", param=0.5, runs=50, iterations=1000)
    ONE_LANE = dict(algorithm="rls", param=0.7, runs=50, iterations=200)

    @pytest.fixture(autouse=True)
    def two_threads_two_cpus(self, monkeypatch):
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(estimators, "_LANE_MIN_DRAWS", 150)
        get_threads, set_threads = estimators._openblas()
        before = get_threads()
        set_threads(2)  # the caller's count
        yield
        set_threads(before)

    @staticmethod
    def record(monkeypatch, fail=None):
        """(stage, BLAS thread count) at a cold greedy selection, the model's
        Gram, each theory curve, each draw and the limit diagnostics; fail
        names a stage that raises, or "lane-1" for the last run's stream."""
        seen = []

        def wrap(module, name, stage):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                seen.append((stage, estimators._blas_threads()))
                if stage == fail:
                    raise RuntimeError(f"{stage} failed")
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        monkeypatch.setattr(sampling, "_greedy_memo", {})  # a cold selection
        wrap(sampling, "_greedy_select", "greedy")
        wrap(estimators, "sampled_gram", "gram")
        for name in TestLayerEntryPoints.NAMES[2:]:
            wrap(theory, name, "theory")
        wrap(harness, "_limit_diagnostics", "limits")
        monkeypatch.setattr(harness, "run_rng", lambda seed, r: RecordingStream(
            seen, run_rng(seed, r), fail == "lane-1" and r == 49))
        return seen

    @staticmethod
    def counts(seen) -> dict:
        return {stage: {count for name, count in seen if name == stage}
                for stage in dict.fromkeys(name for name, _ in seen)}

    def test_theory_curves_and_streams_of_a_split_row_run_at_one_thread(self, monkeypatch):
        seen = self.record(monkeypatch)
        res = run_experiment(config(**self.SPLIT))
        assert res.metadata["mc_lanes"] == 2
        counts = self.counts(seen)
        assert counts["theory"] == counts["draw"] == counts["limits"] == {1}
        assert [name for name, _ in seen].count("theory") == 2

    def test_cold_greedy_set_runs_at_the_callers_count(self, monkeypatch):
        seen = self.record(monkeypatch)
        res = run_experiment(config(**self.SPLIT))
        assert seen[0] == ("greedy", 2)
        assert self.counts(seen)["gram"] == {1}  # the model's Gram, after the set
        assert res.metadata["blas_threads"] == 2

    @pytest.mark.parametrize("fail", [None, "theory", "lane-1"])
    def test_callers_count_comes_back_after_the_row(self, monkeypatch, fail):
        seen = self.record(monkeypatch, fail)
        if fail is None:
            run_experiment(config(**self.SPLIT))
        else:
            with pytest.raises(RuntimeError, match="failed"):
                run_experiment(config(**self.SPLIT))
        assert estimators._blas_threads() == 2
        assert self.counts(seen)["theory"] == {1}

    @pytest.mark.parametrize("row, lanes", [
        (SPLIT, 2), (ONE_LANE, 1), ({**SPLIT, "noise_protocol": "frozen"}, 1),
    ], ids=["split", "one-lane", "frozen"])
    def test_recorded_lanes_are_the_lanes_that_ran(self, monkeypatch, row, lanes):
        # lane 0 runs in the calling thread and every other lane in one it starts
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        res = run_experiment(config(**row))
        assert res.metadata["mc_lanes"] == 1 + len(started) == lanes

    def test_row_that_does_not_split_keeps_the_callers_count(self, monkeypatch):
        seen = self.record(monkeypatch)
        res = run_experiment(config(**self.ONE_LANE))
        assert res.metadata["mc_lanes"] == 1
        assert self.counts(seen) == dict.fromkeys(
            ("greedy", "gram", "theory", "draw", "limits"), {2})
        assert estimators._blas_threads() == 2


class TestLayerEntryPoints:
    # Per-layer timing wraps these module-level names of estimators and theory;
    # a row that bypassed one would read 0 calls and 0 s, which is still a
    # finite metric.
    NAMES = ("lms_msd_trajectory", "rls_msd_trajectory", "lms_theory_paper",
             "lms_theory_exact", "rls_theory_paper", "rls_theory_exact")

    @pytest.mark.parametrize("algorithm, param", [("lms", 0.5), ("rls", 0.7)])
    def test_each_name_called_once_per_row(self, monkeypatch, algorithm, param):
        calls = dict.fromkeys(self.NAMES, 0)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in self.NAMES:
            module = estimators if name.endswith("trajectory") else theory
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        run_experiment(config(algorithm=algorithm, param=param))
        assert calls == {name: int(name.startswith(algorithm)) for name in self.NAMES}


class TestFrozenProtocol:
    def test_frozen_runs_reuse_their_draw(self):
        cfg = config(noise_protocol="frozen", runs=3, iterations=12)
        res = run_experiment(cfg)
        # replay run 0 by hand: same child stream, one reused draw
        model = prepare_experiment(cfg)
        rng = run_rng(cfg.master_seed, 0)
        w = sampled_noise(model, rng)
        state = lms_init(model, cfg.param)
        vals = [msd(model, state.s_hat)]
        for _ in range(11):
            state = lms_step(state, model, w)
            vals.append(msd(model, state.s_hat))
        assert_allclose(res.per_run[0], vals, rtol=1e-11)

    def test_frozen_tail_approaches_literal_curve(self):
        # the literal theory mode describes a run whose noise is drawn once;
        # under that protocol its tail must match the empirical average
        cfg = config(algorithm="rls", param=0.7, noise_protocol="frozen",
                     iterations=300, runs=400)
        res = run_experiment(cfg)
        tail = slice(150, 300)
        emp = res.msd_mean[tail].mean()
        lit = res.theory_paper.values[tail].mean()
        se = res.msd_se[tail].mean() / np.sqrt(len(res.msd_mean[tail]))
        # cross and quadratic terms differ per draw; the average has finite
        # spread, so allow a loose but decisive band (iid tail sits ~4x lower)
        assert abs(emp - lit) / lit < 0.2
        exact_tail = res.theory_exact.values[-1]
        assert emp > 2 * exact_tail


class TestCompare:
    def test_zero_deviation_when_curves_match(self):
        res = run_experiment(config(runs=80))
        stats = compare(res, burn_in_fraction=0.5)
        assert stats.n_tail == 20
        assert stats.exact_mean_abs_db < 1.0
        assert np.isfinite(stats.exact_tail_z)

    def test_one_run_leaves_se_and_z_undefined(self):
        res = run_experiment(config(runs=1))
        assert np.isnan(res.msd_se).all()
        stats = res.deviation
        assert np.isnan(stats.tail_se_db)
        assert np.isnan(stats.exact_tail_z)
        assert np.isfinite(stats.exact_mean_abs_db)

    @pytest.mark.parametrize("algorithm, param", [("lms", 0.0), ("rls", 1.0)])
    def test_identical_runs_have_zero_se_and_undefined_z(self, algorithm, param):
        # no update (mu = 0, lam = 1): every run keeps the signal energy
        res = run_experiment(config(algorithm=algorithm, param=param, runs=3))
        assert (res.per_run == res.per_run[0]).all()
        assert res.deviation.tail_se_db == 0.0
        assert np.isnan(res.deviation.exact_tail_z)

    def test_burn_in_bounds(self):
        res = run_experiment(config())
        with pytest.raises(ValueError):
            compare(res, burn_in_fraction=1.0)
        with pytest.raises(ValueError):
            compare(res, burn_in_fraction=-0.1)

    def test_full_history_when_burn_in_zero(self):
        res = run_experiment(config())
        stats = compare(res, burn_in_fraction=0.0)
        assert stats.n_tail == BASE["iterations"]
