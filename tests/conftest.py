"""Shared fixtures: small experiment setups reused across the test modules."""

import numpy as np
import pytest
from hypothesis import settings

from gspest import (
    BandBasis,
    ExperimentConfig,
    NoiseModel,
    SamplingSet,
    SignalModel,
    build_cw,
    prepare_experiment,
)
from gspest.harness import synthetic_stations

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Ten-station instance shared with the small acceptance checks.
SMALL_CONFIG = dict(
    algorithm="lms",
    param=0.5,
    k=3,
    bandwidth=4,
    sample_size=6,
    scenario="iii",
    iterations=50,
    runs=4,
    master_seed=42,
    n_stations=10,
)


def random_orthonormal(n, f, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, f)))
    # normalize the sign so the fixture is stable across BLAS builds
    q *= np.sign(q[0, :] + (q[0, :] == 0))
    return BandBasis(f=f, u_f=q)


@pytest.fixture(scope="session")
def stations10():
    return synthetic_stations(10, 2018)


@pytest.fixture(scope="session")
def setup10():
    """Graph, band (f = 4), greedy sampling (m = 6) and scenario (iii) noise
    over ten synthetic stations."""
    return prepare_experiment(ExperimentConfig(**SMALL_CONFIG))


@pytest.fixture()
def hand_model():
    """Two nodes, one band vector with short-decimal entries, node 0 sampled.

    With step size 25/16 the update factor is 7/16, so every iterate of a
    noise-free run stays an exact short decimal.
    """
    band = BandBasis(f=1, u_f=np.array([[0.6], [0.8]]))
    sampling = SamplingSet(indices=(0,), n=2)
    s_f = np.array([2.0])
    return SignalModel(band=band, s_f=s_f, sampling=sampling, noise=build_cw(0.0, 0.0, 2, 0))


@pytest.fixture()
def hand_model_noisy():
    """Same two-node setup with strictly positive variances for the RLS path."""
    band = BandBasis(f=1, u_f=np.array([[0.6], [0.8]]))
    sampling = SamplingSet(indices=(0,), n=2)
    s_f = np.array([2.0])
    noise = NoiseModel(c_w=np.array([0.25, 0.5]))
    return SignalModel(band=band, s_f=s_f, sampling=sampling, noise=noise)
