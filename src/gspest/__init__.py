"""Adaptive estimation of bandlimited graph signals.

Builds nearest-neighbour graphs over geographic stations, projects signals
onto the low-frequency Laplacian eigenbasis, tracks them online from noisy
subsampled observations with LMS and RLS estimators, and checks the
measured learning curves against closed-form predictions.
"""

from ._version import __version__
from .estimators import SignalModel, lms_msd_trajectory, rls_gain_matrix, rls_msd_trajectory
from .graph import (BandBasis, GftBasis, Graph, StationTable, band_select,
                    build_knn_graph, gft_basis, haversine_km, laplacian,
                    project_bandlimited)
from .harness import (ConfigError, DeviationStats, ExperimentConfig, RunResult, compare,
                      prepare_experiment, reference_grid, run_experiment, synthetic_stations)
from .io import DataError
from .noise import SCENARIOS, NoiseModel, build_cw, scenario_coefficients
from .sampling import (SamplingSet, check_recoverability, greedy_max_lambda_min,
                       random_sampling, sampled_gram)
from .theory import (TheoryCurve, lms_theory_exact, lms_theory_paper, rls_theory_exact,
                     rls_theory_paper)

__all__ = [
    "__version__",
    "BandBasis", "GftBasis", "Graph", "StationTable",
    "band_select", "build_knn_graph", "gft_basis", "haversine_km", "laplacian",
    "project_bandlimited",
    "SamplingSet", "check_recoverability",
    "greedy_max_lambda_min", "random_sampling", "sampled_gram",
    "SCENARIOS", "NoiseModel", "build_cw", "scenario_coefficients",
    "SignalModel", "lms_msd_trajectory", "rls_gain_matrix", "rls_msd_trajectory",
    "TheoryCurve", "lms_theory_exact", "lms_theory_paper",
    "rls_theory_exact", "rls_theory_paper",
    "ConfigError", "DataError", "DeviationStats", "ExperimentConfig",
    "RunResult", "compare", "prepare_experiment", "reference_grid", "run_experiment",
    "synthetic_stations",
]
