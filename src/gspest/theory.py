"""Closed-form transient MSD curves for the LMS and RLS estimators.

Two modes are produced for each estimator:

* ``paper``: the literal closed-form expression obtained by unrolling the
  error recursion with the noise vector held fixed across iterations and
  then substituting the elementwise square root of the covariance diagonal
  for it. Its decaying term is exact; its noise terms describe a
  frozen-noise run, so at steady state it reports the expected squared bias
  under a single reused draw.
* ``exact``: the exact expectation of the squared error when the noise is
  redrawn independently every iteration, propagated through the error
  covariance recursion. This is the mode Monte Carlo runs converge to.

Both start at t = 1 with the full signal energy (zero initial estimate) and
are evaluated per iteration from the eigendecomposition of the sampled Gram
matrix that a SampledOperator holds, followed by elementwise powers.
"""

from dataclasses import dataclass, field

import numpy as np

from .graph import BandBasis
from .sampling import RECOVERABILITY_TOL, SampledOperator, SamplingSet, sampled_gram

_MODES = ("paper", "exact")
_ALGORITHMS = ("lms", "rls")


@dataclass(frozen=True)
class TheoryCurve:
    """Predicted MSD per iteration (linear units, t starts at 1)."""

    algorithm: str
    mode: str
    values: np.ndarray
    params: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("values must be a non-empty vector")


def _check_t_max(t_max: int) -> int:
    t_max = int(t_max)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    return t_max


def _check_signal(op: SampledOperator, s_f: np.ndarray) -> np.ndarray:
    s_f = np.asarray(s_f, dtype=float)
    if s_f.shape != (op.band.f,):
        raise ValueError(f"s_f shape {s_f.shape} != ({op.band.f},)")
    return s_f


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """base[:, None] ** (0..count-1) via cumulative products (sign-safe)."""
    out = np.ones((base.shape[0], count))
    if count > 1:
        out[:, 1:] = base[:, None]
        np.cumprod(out, axis=1, out=out)
    return out


def lms_theory_paper(op: SampledOperator, s_f: np.ndarray, mu: float,
                     t_max: int) -> TheoryCurve:
    """Literal frozen-noise closed form for the LMS transient.

    Three terms per iteration: the decaying squared bias, a cross term
    between the bias and the substituted noise vector, and the squared
    frozen-noise response. Requires a recoverable sampling set; mu is not
    restricted to the stable range.
    """
    t_max = _check_t_max(t_max)
    z, y = op.noise_modes
    shat = op.v.T @ _check_signal(op, s_f)
    a_pow = _powers(1.0 - mu * op.lam, t_max)  # (f, t)
    ramp = (a_pow - 1.0) / op.lam[:, None]
    term_bias = (shat**2) @ (a_pow**2)
    term_cross = 2.0 * ((shat * y) @ (a_pow * ramp))
    term_noise = z @ (ramp**2)
    return TheoryCurve(
        algorithm="lms",
        mode="paper",
        values=term_bias + term_cross + term_noise,
        params={"mu": float(mu)},
    )


def lms_theory_exact(op: SampledOperator, s_f: np.ndarray, mu: float,
                     t_max: int) -> TheoryCurve:
    """Exact expected MSD of LMS under independently redrawn noise.

    Equals the trace of the error covariance P(t) propagated by
    P(t+1) = A P(t) A^T + mu^2 * (sampled, weighted Gram); the diagonal
    decouples in the Gram eigenbasis, giving a per-mode geometric series.
    """
    t_max = _check_t_max(t_max)
    z, _ = op.noise_modes
    shat = op.v.T @ _check_signal(op, s_f)
    decay = (1.0 - mu * op.lam) ** 2
    d_pow = _powers(decay, t_max)  # (f, t)
    steps = np.arange(t_max, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = (1.0 - d_pow) / (1.0 - decay)[:, None]
    flat = np.abs(1.0 - decay) < 1e-13
    if np.any(flat):
        geo[flat, :] = steps[None, :]
    values = (shat**2) @ d_pow + (mu**2) * (z @ geo)
    return TheoryCurve(
        algorithm="lms",
        mode="exact",
        values=values,
        params={"mu": float(mu)},
    )


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


def lms_steady_state(op: SampledOperator, mu: float, mode: str) -> float:
    """Large-t limit of the LMS theory curve in the requested mode.

    Both are sums over Gram modes: the exact limit of mu^2 z_i / (1 - a_i^2)
    with a_i = 1 - mu lam_i, the literal one of z_i / lam_i^2.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    z, _ = op.noise_modes
    decay = 1.0 - mu * op.lam
    radius = float(np.max(np.abs(decay)))
    if radius >= 1.0:
        raise ValueError(f"step size {mu} is unstable (spectral radius {radius:.6f})")
    if mode == "paper":
        # frozen-noise limit: expected squared bias of the fixed point
        return float(np.sum(z / op.lam**2))
    return float((mu**2) * np.sum(z / (1.0 - decay**2)))


def rls_theory_paper(op: SampledOperator, s_f: np.ndarray, lam: float,
                     t_max: int) -> TheoryCurve:
    """Literal frozen-noise closed form for the RLS transient.

    The geometric bias decay, a cross term with the substituted noise
    vector, and the frozen-noise response whose weight is the trace of the
    gain matrix.
    """
    t_max = _check_t_max(t_max)
    if not 0 < lam <= 1:
        raise ValueError(f"forgetting factor must satisfy 0 < lam <= 1, got {lam}")
    m_mat = op.gain  # validates c_w > 0, recoverability
    s_f = _check_signal(op, s_f)
    whitened = op.rows.T @ (1.0 / np.sqrt(op.c_s))  # (f,)
    cross = float(s_f @ (m_mat @ whitened))
    gain_trace = float(np.trace(m_mat))
    lp = np.power(lam, np.arange(t_max, dtype=float))
    values = (lp**2) * float(s_f @ s_f) + 2.0 * (lp - 1.0) * lp * cross + ((lp - 1.0) ** 2) * gain_trace
    return TheoryCurve(
        algorithm="rls",
        mode="paper",
        values=values,
        params={"lam": float(lam)},
    )


def rls_theory_exact(op: SampledOperator, s_f: np.ndarray, lam: float,
                     t_max: int) -> TheoryCurve:
    """Exact expected MSD of RLS under independently redrawn noise.

    Trace of P(t+1) = lam^2 P(t) + (1 - lam)^2 M, summed in closed form.
    At lam = 1 no update happens and the curve is constant.
    """
    t_max = _check_t_max(t_max)
    if not 0 < lam <= 1:
        raise ValueError(f"forgetting factor must satisfy 0 < lam <= 1, got {lam}")
    m_mat = op.gain
    s_f = _check_signal(op, s_f)
    energy = float(s_f @ s_f)
    lp = np.power(lam, np.arange(t_max, dtype=float))
    if lam == 1.0:
        values = np.full(t_max, energy)
    else:
        noise_gain = (1.0 - lam) / (1.0 + lam) * float(np.trace(m_mat))
        values = (lp**2) * energy + (1.0 - lp**2) * noise_gain
    return TheoryCurve(
        algorithm="rls",
        mode="exact",
        values=values,
        params={"lam": float(lam)},
    )


def rls_steady_state(op: SampledOperator, lam: float, mode: str) -> float:
    """Large-t limit of the RLS theory curve; requires lam < 1 to converge."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if not 0 < lam < 1:
        raise ValueError(f"steady state needs 0 < lam < 1, got {lam}")
    gain_trace = float(np.trace(op.gain))
    if mode == "paper":
        # frozen-noise limit: independent of the forgetting factor
        return gain_trace
    return (1.0 - lam) / (1.0 + lam) * gain_trace
