"""Closed-form transient MSD curves of every estimator in ESTIMATORS.

Every curve reads the experiment's SignalModel, whose recursion() gives the
one error recursion every estimator unrolls, delta <- d * delta + w_S @ G
with d diagonal and G = step * R; limits() gives its steady states. With
q = diag(R^T C_S R), p = R^T sqrt(c_S) and the partial sums
S_t = (1 - d^t) / (1 - d), every curve is a sum over the f coordinates:

* ``paper``: the literal closed form obtained by unrolling the recursion
  with the noise vector held fixed and then substituting sqrt(c_S) for it,
  delta0^2 d^2t + 2 delta0 d^t (step S_t) p + q (step S_t)^2. Its decaying
  term is exact; its noise terms describe a frozen-noise run, so at steady
  state it reports the expected squared bias under a single reused draw.
* ``exact``: the expected squared error when the noise is redrawn
  independently every iteration, delta0^2 d^2t + step^2 q (1 - d^2t) / (1 - d^2).
  This is the mode Monte Carlo runs converge to.

Both start at t = 1 with the full signal energy (zero initial estimate).
A coordinate whose geometric ratio is within 1e-13 of 1 sums to t; within
1e-3 of 1 its partial sums come from expm1 and log1p, which do not cancel.
"""

from dataclasses import dataclass

import numpy as np

from .estimators import ErrorRecursion, SignalModel
from .graph import _frozen_array

_MODES = ("paper", "exact")


@dataclass(frozen=True)
class TheoryCurve:
    """Predicted MSD per iteration (linear units, t starts at 1)."""

    mode: str
    values: np.ndarray

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        values = _frozen_array(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("values must be a non-empty vector")


_BLOCK = 256  # columns of t per block: the working memory is O(f * _BLOCK), not O(f * T)
# Below this distance of a ratio from 1, 1 - base^t cancels: about 1e-16 / (1 - base)
# relative. The expm1 form has no such loss; the threshold keeps every grid curve's bytes.
_NEAR_ONE = 1e-3


def _geometric_blocks(base: np.ndarray, t_max: int):
    """Powers base^t (cumulative products, sign-safe) and partial sums
    (1 - base^t) / (1 - base) per row, for t = 0..t_max-1, yielded as
    (t0, powers, sums) blocks of _BLOCK columns.

    Within _NEAR_ONE of 1, a sum is -expm1(t log1p(-eps)) / eps, eps = 1 - base,
    which keeps full accuracy as base -> 1.

    Each block starts from the last power times base, the product one cumprod
    over every t would take. A vector-matrix product of fewer than 4 columns
    takes another BLAS path, so a shorter tail joins the block before it. The
    curves are then bit-identical to one unblocked evaluation.
    """
    eps = 1.0 - base
    flat = np.abs(eps) < 1e-13
    near = ~flat & (np.abs(eps) < _NEAR_ONE)
    log_base = np.log1p(-eps[near])[:, None]
    first = np.ones(base.shape[0])  # base^t0
    t0 = 0
    while t0 < t_max:
        count = t_max - t0 if t_max - t0 < _BLOCK + 4 else _BLOCK
        powers = np.empty((base.shape[0], count))
        powers[:, 0] = first
        powers[:, 1:] = base[:, None]
        np.cumprod(powers, axis=1, out=powers)
        first = powers[:, -1] * base
        with np.errstate(divide="ignore", invalid="ignore"):
            sums = (1.0 - powers) / eps[:, None]
        t = np.arange(t0, t0 + count, dtype=float)
        if near.any():
            sums[near] = -np.expm1(t * log_base) / eps[near, None]
        sums[flat, :] = t
        yield t0, powers, sums
        del powers, sums  # freed before the next block is built
        t0 += count


def _noise_energy(rec: ErrorRecursion) -> np.ndarray:
    """q = diag(R^T C_S R), the noise energy per coordinate and unit step^2."""
    return rec.c_s @ (rec.response * rec.response)


def _transient(rec: ErrorRecursion, mode: str, t_max: int) -> np.ndarray:
    q = _noise_energy(rec)
    energy = rec.delta0**2
    cross = rec.delta0 * (np.sqrt(rec.c_s) @ rec.response)
    out = np.empty(t_max)
    base = rec.decay * rec.decay if mode == "exact" else rec.decay
    for t0, powers, sums in _geometric_blocks(base, t_max):
        cols = slice(t0, t0 + powers.shape[1])
        if mode == "exact":
            out[cols] = energy @ powers + (rec.step**2) * (q @ sums)
        else:
            ramp = rec.step * sums  # frozen-noise response after t steps, per unit noise
            out[cols] = energy @ (powers**2) + 2.0 * (cross @ (powers * ramp)) + q @ (ramp**2)
            del ramp
        del powers, sums  # so the generator can free this block before the next
    return out


def limits(rec: ErrorRecursion) -> dict[str, float]:
    """Large-t limits of both modes; raises unless every |d_i| < 1.

    For RLS, step / (1 - d) is exactly 1, so the literal limit is the gain
    trace whatever the forgetting factor.
    """
    radius = float(np.max(np.abs(rec.decay)))
    if radius >= 1.0:
        raise ValueError(f"recursion is unstable (spectral radius {radius:.6f}), no steady state")
    q = _noise_energy(rec)
    return {"paper": float(np.sum(q * (rec.step / (1.0 - rec.decay)) ** 2)),
            "exact": float((rec.step**2) * np.sum(q / (1.0 - rec.decay**2)))}


def _curve(model: SignalModel, algorithm: str, mode: str, param: float,
           t_max: int) -> TheoryCurve:
    t_max = int(t_max)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    rec = model.recursion(algorithm, param)
    return TheoryCurve(mode=mode, values=_transient(rec, mode, t_max))


def lms_theory_paper(model: SignalModel, mu: float, t_max: int) -> TheoryCurve:
    """Literal LMS curve, unstable mu too; a traced entry point (perfbench/tracer.py)."""
    return _curve(model, "lms", "paper", mu, t_max)


def lms_theory_exact(model: SignalModel, mu: float, t_max: int) -> TheoryCurve:
    """Exact LMS curve; a traced entry point."""
    return _curve(model, "lms", "exact", mu, t_max)


def rls_theory_paper(model: SignalModel, lam: float, t_max: int) -> TheoryCurve:
    """Literal RLS curve; a traced entry point."""
    return _curve(model, "rls", "paper", lam, t_max)


def rls_theory_exact(model: SignalModel, lam: float, t_max: int) -> TheoryCurve:
    """Exact RLS curve, constant at lam = 1; a traced entry point."""
    return _curve(model, "rls", "exact", lam, t_max)
