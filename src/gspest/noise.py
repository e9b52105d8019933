"""Per-node observation noise with a fixed diagonal covariance.

The covariance diagonal is assembled once per experiment from two
coefficients: a random part (n_a times the absolute value of a standard
normal draw per node, kept nonnegative by construction) and a uniform part
(n_b on every node). Individual noise vectors are then zero-mean Gaussian
with that fixed diagonal covariance.

The estimators see only the sampled nodes, so a simulated run draws its
noise there alone: m standard normals per step, one per sampled node in
ascending index order, scaled by sqrt(c_w) on those nodes (see
estimators._msd_recursion). tests/oracle.py's draw_noise draws every node.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graph import _frozen_array

# Named variance profiles: (n_a, n_b)
SCENARIOS = {
    "i": (0.012, 0.0),
    "ii": (0.05, 0.0),
    "iii": (0.05, 0.05),
}


@dataclass(frozen=True)
class NoiseModel:
    """Diagonal noise covariance c_w."""

    c_w: np.ndarray

    def __post_init__(self):
        c_w = _frozen_array(self.c_w)
        object.__setattr__(self, "c_w", c_w)
        if c_w.ndim != 1 or c_w.shape[0] < 1:
            raise ValueError("c_w must be a non-empty vector")
        if not np.isfinite(c_w).all() or np.any(c_w < 0):
            raise ValueError("variances must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.c_w.shape[0]


def build_cw(n_a: float, n_b: float, n: int, seed: int) -> NoiseModel:
    """Draw the covariance diagonal c_w = n_a * |a| + n_b * 1, a ~ N(0, I).

    The draw happens once; the same seed always yields the same covariance.
    Coefficients must be nonnegative; (0, 0) gives the all-zero covariance
    of a noise-free run, which estimators that weight by its inverse refuse
    through their estimators.ESTIMATORS record.
    """
    if n_a < 0 or n_b < 0:
        raise ValueError("noise coefficients must be nonnegative")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    c_w = n_a * np.abs(a) + n_b * np.ones(n)
    return NoiseModel(c_w=c_w)


def scenario_coefficients(scenario) -> tuple[float, float]:
    """Resolve a named profile ('i', 'ii', 'iii') or an explicit (n_a, n_b)
    list or tuple of two finite nonnegative real numbers."""
    if isinstance(scenario, str):
        key = scenario.strip().lower()
        if key not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
        return SCENARIOS[key]
    if not isinstance(scenario, (list, tuple)) or len(scenario) != 2:
        raise ValueError(f"scenario must be a name or a pair (n_a, n_b), got {scenario!r}")
    if any(isinstance(v, bool) for v in scenario):
        raise ValueError(f"scenario coefficients must be numbers, not booleans, got {scenario!r}")
    if not all(isinstance(v, numbers.Real) for v in scenario):
        raise ValueError(f"scenario coefficients must be real numbers, got {scenario!r}")
    pair = tuple(float(v) for v in scenario)
    if not all(math.isfinite(v) and v >= 0 for v in pair):
        raise ValueError(f"scenario coefficients must be finite and nonnegative, got {pair}")
    return pair
