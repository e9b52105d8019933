"""Stepwise reference implementations that the package's fast paths are
checked against: one update at a time on the full node signal, with the RLS
gain by direct inversion (rls_gain_matrix) and the LMS error covariance's
fixed point by iteration, each apart from the closed forms.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from gspest import BandBasis, NoiseModel, SamplingSet, SignalModel, rls_gain_matrix
from gspest.graph import _frozen_array
from gspest.sampling import RECOVERABILITY_TOL, sampled_gram


@dataclass(frozen=True)
class LmsState:
    s_hat: np.ndarray
    mu: float
    t: int

    def __post_init__(self):
        object.__setattr__(self, "s_hat", _frozen_array(self.s_hat))
        if self.t < 1:
            raise ValueError("iteration counter starts at 1")


@dataclass(frozen=True)
class RlsState:
    s_hat: np.ndarray
    lam: float
    m_mat: np.ndarray
    t: int

    def __post_init__(self):
        s_hat = _frozen_array(self.s_hat)
        m_mat = _frozen_array(self.m_mat)
        object.__setattr__(self, "s_hat", s_hat)
        object.__setattr__(self, "m_mat", m_mat)
        if self.t < 1:
            raise ValueError("iteration counter starts at 1")
        if m_mat.shape != (s_hat.shape[0], s_hat.shape[0]):
            raise ValueError("gain matrix shape does not match state")
        if np.max(np.abs(m_mat - m_mat.T)) > 1e-10 * (1.0 + float(np.max(np.abs(m_mat)))):
            raise ValueError("gain matrix must be symmetric")
        np.linalg.cholesky(m_mat + m_mat.T)  # raises if not positive definite


def lms_init(model: SignalModel, mu: float) -> LmsState:
    """Zero initial estimate at t = 1. Any finite mu is allowed; stability is
    the caller's concern (divergence studies are legitimate)."""
    if not np.isfinite(mu):
        raise ValueError("step size must be finite")
    return LmsState(s_hat=np.zeros(model.f), mu=float(mu), t=1)


def rls_init(model: SignalModel, lam: float) -> RlsState:
    """Zero initial estimate at t = 1 with the precomputed gain matrix.

    The forgetting factor must satisfy 0 < lam <= 1; values below 0.5 are
    accepted with a warning since they barely average the noise.
    """
    if not 0 < lam <= 1:
        raise ValueError(f"forgetting factor must satisfy 0 < lam <= 1, got {lam}")
    if lam < 0.5:
        warnings.warn(f"forgetting factor {lam} is unusually small", stacklevel=2)
    m_mat = rls_gain_matrix(model.band, model.sampling, model.noise.c_w)
    return RlsState(s_hat=np.zeros(model.f), lam=float(lam), m_mat=m_mat, t=1)


def target_signal(model: SignalModel) -> np.ndarray:
    """The true bandlimited node signal u_f @ s_f, shape (n,)."""
    return model.band.u_f @ model.s_f


def error_signal(model: SignalModel, s_hat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Observation error on the sampled nodes, zero elsewhere."""
    resid = target_signal(model) + w - model.band.u_f @ s_hat
    out = np.zeros(model.n)
    sel = list(model.sampling.indices)
    out[sel] = resid[sel]
    return out


def lms_step(state: LmsState, model: SignalModel, w: np.ndarray) -> LmsState:
    """One fixed-step update along the band projection of the error."""
    e = error_signal(model, state.s_hat, w)
    s_next = state.s_hat + state.mu * (model.band.u_f.T @ e)
    return LmsState(s_hat=s_next, mu=state.mu, t=state.t + 1)


def rls_step(state: RlsState, model: SignalModel, w: np.ndarray) -> RlsState:
    """One geometrically weighted update of the noise-whitened error."""
    e = error_signal(model, state.s_hat, w)
    g = model.band.u_f.T @ (e / model.noise.c_w)
    s_next = state.s_hat + (1.0 - state.lam) * (state.m_mat @ g)
    return RlsState(s_hat=s_next, lam=state.lam, m_mat=state.m_mat, t=state.t + 1)


def msd(model: SignalModel, s_hat: np.ndarray) -> float:
    """Squared node-domain deviation of the reconstruction from the target."""
    r = model.band.u_f @ np.asarray(s_hat, dtype=float) - target_signal(model)
    return float(r @ r)


def draw_noise(model: NoiseModel, rng: np.random.Generator) -> np.ndarray:
    """One fresh noise vector w with E[w] = 0 and E[w w^T] = diag(c_w).

    It draws n normals, one for every node, so it is not a simulated run's
    stream, which draws only on the m sampled nodes.
    """
    return np.sqrt(model.c_w) * rng.standard_normal(model.n)


def sampled_noise(model, rng):
    """One step of a run's noise stream as an n-vector: sqrt(c_S) times m
    standard normals on the sampled nodes, in index order, zero elsewhere.
    Off-sample noise never enters an update, so a run draws none of it."""
    sel = list(model.sampling.indices)
    w = np.zeros(model.n)
    w[sel] = np.sqrt(model.noise.c_w[sel]) * rng.standard_normal(len(sel))
    return w


def sampling_mask(sampling):
    """Boolean n-vector, True on the sampled nodes."""
    out = np.zeros(sampling.n, dtype=bool)
    out[list(sampling.indices)] = True
    return out


def solve_lms_lyapunov(band: BandBasis, sampling: SamplingSet, c_w: np.ndarray,
                       mu: float, tol: float = 1e-15, max_iters: int = 100) -> np.ndarray:
    """Fixed point P of P = A P A^T + mu^2 Q for the LMS error covariance.

    Accelerated fixed-point iteration: repeatedly folds the partial sum into
    itself while squaring A, which converges in O(log) steps for any stable
    mu. Raises for unstable mu.
    """
    c_w = np.asarray(c_w, dtype=float)
    gram = sampled_gram(band, sampling)
    lam = np.linalg.eigvalsh(gram)
    if lam[0] <= RECOVERABILITY_TOL:
        raise ValueError(f"sampling set not recoverable (lambda_min={lam[0]:.3e})")
    radius = float(np.max(np.abs(1.0 - mu * lam)))
    if radius >= 1.0:
        raise ValueError(f"step size {mu} is unstable (spectral radius {radius:.6f})")
    sel = list(sampling.indices)
    scaled = band.u_f[sel, :] * np.sqrt(c_w[sel])[:, None]
    p_mat = (mu**2) * (scaled.T @ scaled)
    a_k = np.eye(band.f) - mu * gram
    for _ in range(max_iters):
        incr = a_k @ p_mat @ a_k.T
        p_mat = p_mat + incr
        scale = float(np.linalg.norm(p_mat, "fro"))
        if float(np.linalg.norm(incr, "fro")) <= tol * max(scale, 1e-300):
            break
        a_k = a_k @ a_k
    return (p_mat + p_mat.T) / 2
