"""Monte Carlo harness: configured experiments, averaged runs, deviations.

An experiment fixes the graph, band, sampling set, noise law and estimator
parameters, then averages the per-iteration squared error over independent
runs. Averaging happens in linear units; decibels are taken of the average.
Every random ingredient derives from one master seed, so identical configs
reproduce bit-identical results.

Seed layout: the covariance draw uses child key (1,), random sampling child
key (2,), and run r the child key (3, r) of the master seed.
"""

import hashlib
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import estimators, theory
from .estimators import ErrorRecursion, SignalModel, estimator
from .graph import (BandBasis, StationTable, _frozen_array, band_select, build_knn_graph,
                    gft_basis, laplacian, project_bandlimited)
from .noise import build_cw, scenario_coefficients
from .sampling import SamplingSet, greedy_max_lambda_min, random_sampling
from .theory import TheoryCurve, limits

_COV_KEY = 1
_SAMPLING_KEY = 2
_RUN_KEY = 3

DEFAULT_BURN_IN = 0.5


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every failure at once."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"- {e}" for e in self.errors))


def _builtin_number(value):
    """An Integral as int and a Real as float; bools and the rest unchanged."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    return int(value) if isinstance(value, numbers.Integral) else float(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete recipe for one experiment, checked on construction (and so on
    every dataclasses.replace): a ConfigError lists each problem that does not
    depend on the station count, which prepare_experiment checks."""

    algorithm: str  # a key of estimators.ESTIMATORS
    param: float  # that estimator's parameter
    k: int  # neighbours per station
    bandwidth: int  # band width f
    sample_size: int  # observed nodes
    scenario: object  # "i" | "ii" | "iii" or explicit (n_a, n_b)
    iterations: int
    runs: int
    master_seed: int
    sampling_strategy: str = "greedy"  # "greedy" | "random"
    noise_protocol: str = "iid"  # "iid" | "frozen"
    stations_csv: str | None = None
    n_stations: int = 299
    stations_seed: int = 2018

    def __post_init__(self):
        # numpy and other registered numbers become the int or float they
        # stand for, so checks, seeds and the manifest see builtin values;
        # param is always a float and a scenario pair a tuple
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) in (tuple, list):  # a scenario pair
                value = tuple(map(_builtin_number, value))
            object.__setattr__(self, f.name, _builtin_number(value))
        if type(self.param) is int:  # not bool, which is refused below
            object.__setattr__(self, "param", float(self.param))
        errors: list[str] = []

        def integer(name: str, low: int) -> None:
            value = getattr(self, name)
            if isinstance(value, bool):
                errors.append(f"{name} must be a number, not a boolean ({value})")
            elif not isinstance(value, int) or value < low:
                errors.append(f"{name} must be an integer >= {low}, got {value!r}")

        try:
            est = estimator(self.algorithm)
        except ValueError as exc:
            est = None
            errors.append(str(exc))
        if isinstance(self.param, bool):
            errors.append(f"param must be a number, not a boolean ({self.param})")
        elif not isinstance(self.param, float):
            errors.append(f"param must be a finite number, got {self.param!r}")
        elif est is not None and (error := est.param_error(self.param)):
            errors.append(error)
        for name in ("k", "bandwidth", "sample_size", "iterations", "runs"):
            integer(name, 1)
        if isinstance(self.sample_size, int) and isinstance(self.bandwidth, int):
            if self.sample_size < self.bandwidth:
                errors.append(
                    f"sample_size ({self.sample_size}) must be at least bandwidth ({self.bandwidth})")
        integer("master_seed", 0)
        integer("stations_seed", 0)
        if self.stations_csv is None:
            integer("n_stations", 2)
        elif not isinstance(self.stations_csv, str) or not self.stations_csv:
            errors.append(f"stations_csv must be a non-empty path or null, got {self.stations_csv!r}")
        try:
            if self.scenario_pair() == (0.0, 0.0) and est is not None and est.positive_noise:
                errors.append(f"zero-noise scenario is incompatible with {self.algorithm} "
                              "(needs invertible covariance)")
        except ValueError as exc:
            errors.append(str(exc))
        if self.sampling_strategy not in ("greedy", "random"):
            errors.append(f"sampling_strategy must be 'greedy' or 'random', got {self.sampling_strategy!r}")
        if self.noise_protocol not in ("iid", "frozen"):
            errors.append(f"noise_protocol must be 'iid' or 'frozen', got {self.noise_protocol!r}")
        if errors:
            raise ConfigError(errors)

    def scenario_pair(self) -> tuple[float, float]:
        return scenario_coefficients(self.scenario)


# The study grid on 299 stations, 210 of them observed: per case k, band width
# and each estimator's two parameters; then each estimator's iteration count.
_GRID_CASES = {1: (8, 200, {"lms": (0.43, 1.57), "rls": (0.61, 0.85)}),
               2: (16, 160, {"lms": (0.2, 1.1), "rls": (0.55, 0.79)})}
_GRID_ITERATIONS = {"lms": 1000, "rls": 200}


def reference_grid(algorithms, scenarios, runs, master_seed, stations_csv=None,
                   n_stations=299) -> list[tuple[str, int, ExperimentConfig]]:
    """The study grid's rows, nested estimator, case, scenario, parameter:
    (file stem "<alg>_case<c>_<scn>_p<param>", case number, config checked
    also against the n_stations limits that prepare_experiment checks)."""
    if unknown := [a for a in algorithms if a not in _GRID_ITERATIONS]:
        raise ConfigError([f"the reference grid has no algorithm {a!r}; choose from "
                           f"{', '.join(map(repr, _GRID_ITERATIONS))}" for a in unknown])
    rows = [(f"{algorithm}_case{case}_{scenario}_p{param}", case, ExperimentConfig(
                algorithm=algorithm, param=param, k=k, bandwidth=bandwidth, sample_size=210,
                scenario=scenario, iterations=_GRID_ITERATIONS[algorithm], runs=runs,
                master_seed=master_seed, stations_csv=stations_csv, n_stations=n_stations))
            for algorithm in algorithms for case, (k, bandwidth, params) in _GRID_CASES.items()
            for scenario in scenarios for param in params[algorithm]]
    if errors := dict.fromkeys(error for _, _, config in rows
                               for error in _station_count_errors(config, n_stations)):
        raise ConfigError(list(errors))
    return rows


def _station_count_errors(config: ExperimentConfig, n: int) -> list[str]:
    """The config's limits set by a table of n stations, each broken one as a message."""
    return [message for too_many, message in (
        (config.k > n - 1, f"k ({config.k}) must be at most n-1 ({n - 1})"),
        (config.bandwidth > n, f"bandwidth ({config.bandwidth}) must be at most n ({n})"),
        (config.sample_size > n, f"sample_size ({config.sample_size}) must be at most n ({n})"),
    ) if too_many]


def covariance_seed(master_seed: int) -> int:
    seq = np.random.SeedSequence(master_seed, spawn_key=(_COV_KEY,))
    return int(seq.generate_state(1, np.uint64)[0])


def sampling_seed(master_seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(master_seed, spawn_key=(_SAMPLING_KEY,))


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(_RUN_KEY, run_index)))


def synthetic_stations(n: int, seed: int) -> StationTable:
    """Stations scattered over a continental box with a smooth field.

    Coordinates are uniform over a South-American latitude/longitude box;
    the value at each station is a sum of low-frequency spatial harmonics
    plus a north-south gradient, so it is close to bandlimited on the
    nearest-neighbour graph.
    """
    if n < 2:
        raise ValueError(f"need at least 2 stations, got {n}")
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-33.0, -1.0, n)
    lon = rng.uniform(-73.0, -35.0, n)
    u = (lat + 33.0) / 32.0
    v = (lon + 73.0) / 38.0
    signal = (
        24.0
        + 4.0 * np.sin(2 * np.pi * u)
        + 2.5 * np.cos(2 * np.pi * v)
        + 1.5 * np.sin(2 * np.pi * (u + v))
        + 3.0 * (u - 0.5)
    )
    ids = tuple(f"stn{i:04d}" for i in range(n))
    return StationTable(ids=ids, coords=np.column_stack([lat, lon]), signal=signal)


def prepare_experiment(config: ExperimentConfig, stations: StationTable | None = None,
                       basis=None) -> SignalModel:
    """Build graph, band, sampling set, noise law and target signal.

    ``stations`` defaults to the synthetic table; ``basis`` may carry a
    cached eigendecomposition of the graph Laplacian, in which case the
    k-NN graph is not rebuilt.
    """
    return _signal_model(config, *_sampled_band(config, stations, basis))


def _sampled_band(config: ExperimentConfig, stations: StationTable | None,
                  basis) -> tuple[StationTable, BandBasis, SamplingSet]:
    """The station table, band and sampling set of prepare_experiment."""
    if stations is None:
        if config.stations_csv is not None:
            raise ValueError("stations_csv is set; load the table and pass it in")
        stations = synthetic_stations(config.n_stations, config.stations_seed)
    if errors := _station_count_errors(config, stations.n):
        raise ConfigError(errors)
    if basis is None:
        basis = gft_basis(laplacian(build_knn_graph(stations, config.k)))
    elif basis.n != stations.n:
        raise ValueError("cached basis does not match the station table")
    band = band_select(basis, config.bandwidth)
    if config.sampling_strategy == "greedy":
        sampling = greedy_max_lambda_min(band, config.sample_size)
    else:
        sampling = random_sampling(band, config.sample_size, sampling_seed(config.master_seed))
    return stations, band, sampling


def _signal_model(config: ExperimentConfig, stations: StationTable, band: BandBasis,
                  sampling: SamplingSet) -> SignalModel:
    """The model of prepare_experiment on a chosen sampling set: noise law,
    target signal and the check that the set recovers the band."""
    noise = build_cw(*config.scenario_pair(), stations.n, covariance_seed(config.master_seed))
    s_f, _ = project_bandlimited(band, stations.signal)
    model = SignalModel(band=band, s_f=s_f, sampling=sampling, noise=noise)
    model.require_recoverable()
    return model


def theory_curves(config: ExperimentConfig,
                  model: SignalModel) -> tuple[TheoryCurve, TheoryCurve]:
    """The literal ("paper") and exact theory curves of the experiment, from the
    entry points <algorithm>_theory_<mode> that perfbench/tracer.py replaces."""
    return tuple(getattr(theory, f"{config.algorithm}_theory_{mode}")(
        model, config.param, config.iterations) for mode in ("paper", "exact"))


@dataclass(frozen=True)
class DeviationStats:
    """Tail agreement between the empirical curve and each theory mode."""

    burn_in_fraction: float
    n_tail: int
    paper_max_abs_db: float
    paper_mean_abs_db: float
    paper_n_nonfinite: int  # tail points where either curve is not finite
    exact_max_abs_db: float
    exact_mean_abs_db: float
    exact_n_nonfinite: int
    tail_se_db: float  # average dB uncertainty of the empirical tail, delta method
    exact_tail_z: float  # |tail mean error vs exact theory| / its standard error
    # both are NaN (undefined) for a one-run experiment; when every run's tail
    # is the same, the SE is 0.0 and z NaN


@dataclass(frozen=True)
class RunResult:
    """A row's Monte Carlo and theory curves, valid from construction: it
    derives the average, its standard error and the dB curves from them, and
    the tail deviation unless one is given, so dataclasses.replace derives
    them again from the curves it is given."""

    config: ExperimentConfig
    per_run: np.ndarray  # one linear MSD curve per run, shape (runs, iterations)
    theory_paper: TheoryCurve
    theory_exact: TheoryCurve
    metadata: dict
    deviation: DeviationStats | None = None  # compare(self) when not given
    _derived: DeviationStats | None = field(default=None, repr=False)  # compare(self), if derived
    t: np.ndarray = field(init=False)  # iteration index, starts at 1
    msd_mean: np.ndarray = field(init=False)  # linear average over runs
    msd_mean_db: np.ndarray = field(init=False)
    msd_se: np.ndarray = field(init=False)  # per-iteration standard error of the mean, linear; NaN for one run
    theory_paper_db: np.ndarray = field(init=False)
    theory_exact_db: np.ndarray = field(init=False)

    def __post_init__(self):
        per_run = _frozen_array(self.per_run)
        n_runs, t_count = per_run.shape
        msd_mean = per_run.mean(axis=0)
        if n_runs > 1:
            msd_se = per_run.std(axis=0, ddof=1) / math.sqrt(n_runs)
        else:
            msd_se = np.full(t_count, np.nan)
        derived = {"per_run": per_run, "t": np.arange(1, t_count + 1), "msd_mean": msd_mean,
                   "msd_mean_db": _to_db(msd_mean), "msd_se": msd_se,
                   "theory_paper_db": _to_db(self.theory_paper.values),
                   "theory_exact_db": _to_db(self.theory_exact.values)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # a replace copies the deviation derived for the old curves: derive it again
        if self.deviation is None or self.deviation is self._derived:
            object.__setattr__(self, "deviation", compare(self, DEFAULT_BURN_IN))
            object.__setattr__(self, "_derived", self.deviation)


def _to_db(values: np.ndarray) -> np.ndarray:
    """Decibel transform with explicit edge handling.

    Zero maps to -inf.  Negative values (the literal transient expression can
    dip below zero mid-transient because its cross term is not matched to its
    quadratic term) have no decibel representation and map to NaN.
    """
    v = np.asarray(values, dtype=float)
    out = np.full(v.shape, np.nan)
    out[v == 0.0] = -np.inf
    pos = v > 0.0
    out[pos] = 10.0 * np.log10(v[pos])
    return out


def tail_slice(t_count: int, burn_in_fraction: float) -> slice:
    """The iterations left after dropping the first burn-in fraction of t_count."""
    if not 0 <= burn_in_fraction < 1:
        raise ValueError(f"burn-in fraction must lie in [0, 1), got {burn_in_fraction}")
    return slice(math.floor(burn_in_fraction * t_count), t_count)


def tail_report(emp_db: np.ndarray, paper_db: np.ndarray, exact_db: np.ndarray,
                burn_in_fraction: float) -> tuple[int, dict]:
    """Tail length and, per theory mode, its agreement with the empirical
    curve over the tail, every curve in dB: the max and mean |emp - theory|,
    the number of tail points where either curve is not finite (one such point
    makes that max and mean nan or inf) and, by kind, those nan, -inf or +inf."""
    tail = tail_slice(len(emp_db), burn_in_fraction)
    emp, modes = emp_db[tail], {}
    for mode, theory_db in (("paper", paper_db), ("exact", exact_db)):
        theory = theory_db[tail]
        with np.errstate(invalid="ignore"):  # inf - inf is nan, counted below
            dev = np.abs(emp - theory)
        modes[mode] = {"max_abs_db": float(np.max(dev)), "mean_abs_db": float(np.mean(dev)),
                       "n_nonfinite": int(np.sum(~np.isfinite(dev))),
                       "by_kind": {"nan": int(np.sum(np.isnan(emp) | np.isnan(theory))),
                                   "-inf": int(np.sum(np.isneginf(emp) | np.isneginf(theory))),
                                   "+inf": int(np.sum(np.isposinf(emp) | np.isposinf(theory)))}}
    return emp.shape[0], modes


def compare(result: RunResult, burn_in_fraction: float = DEFAULT_BURN_IN) -> DeviationStats:
    """Tail deviation report; the tail starts after the burn-in fraction."""
    n_tail, modes = tail_report(result.msd_mean_db, result.theory_paper_db,
                                result.theory_exact_db, burn_in_fraction)
    tail = tail_slice(result.t.shape[0], burn_in_fraction)
    run_tail_means = result.per_run[:, tail].mean(axis=1)
    n_runs = run_tail_means.shape[0]
    if n_runs < 2:  # one run has no spread to take an error from
        tail_se_db = exact_tail_z = float("nan")
    elif np.all(result.per_run[:, tail] == result.per_run[:1, tail]):
        # identical runs (mu = 0, lam = 1): no spread, so no error to divide by
        tail_se_db, exact_tail_z = 0.0, float("nan")
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            se_db = (10.0 / np.log(10.0)) * result.msd_se[tail] / result.msd_mean[tail]
        tail_se_db = float(np.mean(se_db)) if np.all(np.isfinite(se_db)) else float("inf")
        se_tail = float(run_tail_means.std(ddof=1) / math.sqrt(n_runs))
        gap = abs(float(run_tail_means.mean())
                  - float(np.mean(result.theory_exact.values[tail])))
        exact_tail_z = gap / se_tail if se_tail > 0 else (0.0 if gap == 0 else float("inf"))
    return DeviationStats(
        burn_in_fraction=float(burn_in_fraction),
        n_tail=n_tail,
        **{f"{mode}_{key}": figures[key] for mode, figures in modes.items()
           for key in ("max_abs_db", "mean_abs_db", "n_nonfinite")},
        tail_se_db=tail_se_db,
        exact_tail_z=exact_tail_z,
    )


def _limit_diagnostics(rec: ErrorRecursion) -> dict:
    """Spectral radius, both modes' steady states and their gap in dB; the
    last two are None without convergence, the gap also without noise."""
    radius = float(np.max(np.abs(rec.decay)))
    steady = limits(rec) if radius < 1.0 else None
    gap = None
    if steady is not None and steady["paper"] > 0 and steady["exact"] > 0:
        gap = 10.0 * math.log10(steady["paper"] / steady["exact"])
    return {"spectral_radius": radius, "steady_state": steady, "predicted_gap_db": gap}


def run_experiment(config: ExperimentConfig, stations: StationTable | None = None,
                   basis=None) -> RunResult:
    """Prepare, predict and simulate R runs; the RunResult averages and compares them.

    Per-run noise comes from child seeds of (master_seed, run index), so the
    result is bit-identical for a given config; runs are reduced in
    ascending index order. The graph basis and the sampling set run at the
    caller's BLAS thread count; the rest of the row, from its model to its
    last curve, runs under the BLAS hold of estimators.row_schedule.
    """
    started = time.perf_counter()
    t_count, n_runs = config.iterations, config.runs
    frozen = config.noise_protocol == "frozen"
    schedule = estimators.row_schedule(n_runs, t_count, config.sample_size, frozen)
    stations, band, sampling = _sampled_band(config, stations, basis)
    with schedule.blas_hold() as blas_threads:  # what the graph basis and the set ran on
        model = _signal_model(config, stations, band, sampling)
        prepared = time.perf_counter()
        theory_paper, theory_exact = theory_curves(config, model)
        predicted = time.perf_counter()
        trajectory = getattr(estimators, f"{config.algorithm}_msd_trajectory")  # traced, as above
        per_run = trajectory(model, config.param, t_count,
                             [run_rng(config.master_seed, r) for r in range(n_runs)],
                             frozen_noise=frozen)
        simulated = time.perf_counter()
        diagnostics = _limit_diagnostics(model.recursion(config.algorithm, config.param))
    metadata = {
        "sampling_indices": list(model.sampling.indices),
        "lambda_min": model.lam_min,
        "cw_digest": hashlib.sha256(np.ascontiguousarray(model.noise.c_w).tobytes()).hexdigest(),
        "blas_threads": blas_threads,  # None when it cannot be read
        "mc_lanes": schedule.lanes,
        "stages": {"prepare": prepared - started, "theory": predicted - prepared,
                   "simulate": simulated - predicted},  # wall seconds
        **diagnostics,
    }
    est = estimator(config.algorithm)
    bound = est.stability_bound(model) if est.stability_bound is not None else None
    metadata["mu_max"] = bound  # the manifest's name for the bound; None without one
    metadata["stable"] = None if bound is None else bool(config.param < bound)
    if bound is not None and config.param >= bound:
        # Divergence studies are legitimate, so an unstable parameter is
        # flagged rather than rejected.
        warnings.warn(f"{est.param_name} {config.param} is at or above the stability "
                      f"limit {bound:.6g}; the mean trajectory will diverge",
                      RuntimeWarning, stacklevel=2)
    return RunResult(config, per_run, theory_paper, theory_exact, metadata)
