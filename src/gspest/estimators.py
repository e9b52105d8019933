"""Online estimators that track a bandlimited graph signal from noisy samples.

Both estimators keep a vector of band coefficients s_hat and refine it from
the sampled, noisy observation error. The LMS update takes a fixed step
along the projected error; the RLS update weights the error by the inverse
noise covariance through a fixed gain matrix and forgets the past
geometrically. Estimation error is tracked as the squared node-domain
deviation (MSD), which equals the squared coefficient deviation because the
band basis is orthonormal.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import BandBasis
from .noise import NoiseModel, draw_noise
from .sampling import ErrorRecursion, SampledOperator, SamplingSet


@dataclass(frozen=True)
class SignalModel:
    """Everything fixed during a run: target signal, sampling set, noise law."""

    band: BandBasis
    s_f: np.ndarray  # true band coefficients, shape (f,)
    x_o: np.ndarray  # true bandlimited node signal, shape (n,)
    sampling: SamplingSet
    noise: NoiseModel

    def __post_init__(self):
        s_f = np.asarray(self.s_f, dtype=float)
        x_o = np.asarray(self.x_o, dtype=float)
        s_f.setflags(write=False)
        x_o.setflags(write=False)
        object.__setattr__(self, "s_f", s_f)
        object.__setattr__(self, "x_o", x_o)
        n, f = self.band.n, self.band.f
        if s_f.shape != (f,):
            raise ValueError(f"s_f shape {s_f.shape} != ({f},)")
        if x_o.shape != (n,):
            raise ValueError(f"x_o shape {x_o.shape} != ({n},)")
        if self.sampling.n != n:
            raise ValueError("sampling set node count does not match basis")
        if self.noise.n != n:
            raise ValueError("noise model node count does not match basis")
        resid = np.max(np.abs(self.band.u_f @ s_f - x_o))
        if resid > 1e-10 * (1.0 + float(np.max(np.abs(x_o)))):
            raise ValueError("x_o must be the band reconstruction of s_f")

    @property
    def n(self) -> int:
        return self.band.n

    @property
    def f(self) -> int:
        return self.band.f

    @cached_property
    def operator(self) -> SampledOperator:
        """The sampled Gram operator of this model, decomposed on first use."""
        return SampledOperator(self.band, self.sampling, self.noise.c_w)


@dataclass(frozen=True)
class LmsState:
    s_hat: np.ndarray
    mu: float
    t: int

    def __post_init__(self):
        s_hat = np.asarray(self.s_hat, dtype=float)
        s_hat.setflags(write=False)
        object.__setattr__(self, "s_hat", s_hat)
        if self.t < 1:
            raise ValueError("iteration counter starts at 1")


@dataclass(frozen=True)
class RlsState:
    s_hat: np.ndarray
    lam: float
    m_mat: np.ndarray
    t: int

    def __post_init__(self):
        s_hat = np.asarray(self.s_hat, dtype=float)
        m_mat = np.asarray(self.m_mat, dtype=float)
        s_hat.setflags(write=False)
        m_mat.setflags(write=False)
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


def rls_gain_matrix(band: BandBasis, sampling: SamplingSet, c_w: np.ndarray) -> np.ndarray:
    """Inverse of the noise-weighted sampled Gram matrix, obtained by solving.

    Requires a recoverable sampling set and strictly positive variances
    (the weighting divides by them).
    """
    return SampledOperator(band, sampling, c_w).gain


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


def error_signal(model: SignalModel, s_hat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Observation error on the sampled nodes, zero elsewhere."""
    resid = model.x_o + w - model.band.u_f @ s_hat
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
    r = model.band.u_f @ np.asarray(s_hat, dtype=float) - model.x_o
    return float(r @ r)


def _msd_recursion(model: SignalModel, rec: ErrorRecursion, n_iter: int,
                   rng: np.random.Generator, frozen_noise: bool) -> np.ndarray:
    """Squared norm of the error delta <- decay * delta + w_S @ gain per step.

    w_S is the step's noise on the sampled nodes; with frozen noise one draw
    serves every step, so its product with the gain is taken once. Drawing
    the whole run's noise as one block consumes the generator exactly like
    per-step draws, so stepwise and batched runs see identical noise. The
    recursion's coordinates are orthonormal, so the squared norm is the MSD.
    """
    if n_iter < 1:
        raise ValueError("need at least one iteration")
    sel = list(model.sampling.indices)
    if frozen_noise:
        w = draw_noise(model.noise, rng)
        inject = np.broadcast_to(w[sel] @ rec.gain, (n_iter - 1, model.f))
    else:
        noise = rng.standard_normal((n_iter - 1, model.n)) * np.sqrt(model.noise.c_w)[None, :]
        inject = noise[:, sel] @ rec.gain
    delta = rec.delta0
    vals = np.empty(n_iter)
    vals[0] = delta @ delta
    for t in range(1, n_iter):
        delta = rec.decay * delta + inject[t - 1]
        vals[t] = delta @ delta
    return vals


def lms_msd_trajectory(model: SignalModel, mu: float, n_iter: int,
                       rng: np.random.Generator, frozen_noise: bool = False) -> np.ndarray:
    """MSD curve of one LMS run, computed in the sampled Gram eigenbasis.

    Entry 0 is the error of the zero initial estimate at t = 1; each later
    entry follows one update with a fresh noise draw. Algebraically
    identical to iterating lms_step and recording msd.
    """
    return _msd_recursion(model, model.operator.recursion("lms", mu, model.s_f), n_iter,
                          rng, frozen_noise)


def rls_msd_trajectory(model: SignalModel, lam: float, n_iter: int,
                       rng: np.random.Generator, frozen_noise: bool = False) -> np.ndarray:
    """MSD curve of one RLS run, computed in band coordinates; same
    conventions as the LMS trajectory, identical to iterating rls_step."""
    return _msd_recursion(model, model.operator.recursion("rls", lam, model.s_f), n_iter,
                          rng, frozen_noise)
