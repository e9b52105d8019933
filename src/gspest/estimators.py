"""Online estimators that track a bandlimited graph signal from noisy samples.

Every estimator keeps a vector of band coefficients s_hat and refines it
from the sampled, noisy observation error. The LMS update takes a fixed step
along the projected error; the RLS update weights the error by the inverse
noise covariance through a fixed gain matrix and forgets the past
geometrically. ESTIMATORS holds each one's rules. Estimation error is
tracked as the squared node-domain deviation (MSD), which equals the squared
coefficient deviation because the band basis is orthonormal.
"""

import ctypes
import glob
import math
import os
import threading
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .graph import BandBasis, _frozen_array
from .noise import NoiseModel
from .sampling import RECOVERABILITY_TOL, SamplingSet, check_recoverability, sampled_gram


@dataclass(frozen=True)
class ErrorRecursion:
    """Error recursion delta <- decay * delta + w_S @ (step * response).

    w_S is the step's noise on the sampled nodes (variances c_s) and delta0
    the error of the zero initial estimate. The f coordinates are
    orthonormal, so |delta|^2 is the MSD.
    """

    decay: np.ndarray
    step: float
    response: np.ndarray  # (m, f)
    delta0: np.ndarray
    c_s: np.ndarray

    def __post_init__(self):
        # read-only views: one recursion is shared by every run of a trajectory call
        for name in ("decay", "response", "delta0", "c_s"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True)
class SignalModel:
    """Everything fixed during a run: target signal, sampling set, noise law;
    the sampled Gram matrix U_S^T U_S is decomposed once, on first use."""

    band: BandBasis
    s_f: np.ndarray  # true band coefficients, shape (f,)
    sampling: SamplingSet
    noise: NoiseModel

    def __post_init__(self):
        s_f = _frozen_array(self.s_f)
        object.__setattr__(self, "s_f", s_f)
        n, f = self.band.n, self.band.f
        if s_f.shape != (f,):
            raise ValueError(f"s_f shape {s_f.shape} != ({f},)")
        if self.sampling.n != n:
            raise ValueError("sampling set node count does not match basis")
        if self.noise.n != n:
            raise ValueError("noise model node count does not match basis")

    @property
    def n(self) -> int:
        return self.band.n

    @property
    def f(self) -> int:
        return self.band.f

    @cached_property
    def rows(self) -> np.ndarray:  # U_S, the sampled basis rows, shape (m, f)
        return self.band.u_f[list(self.sampling.indices), :]

    @cached_property
    def c_s(self) -> np.ndarray:  # noise variances on the sampled nodes, shape (m,)
        return self.noise.c_w[list(self.sampling.indices)]

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:  # ascending eigenvalues, V
        return np.linalg.eigh(sampled_gram(self.band, self.sampling))

    @property
    def lam_min(self) -> float:
        return float(self.gram_eigh[0][0])

    @property
    def mu_max(self) -> float:  # LMS is stable for 0 < mu < mu_max
        return 2.0 / float(self.gram_eigh[0][-1])

    def require_recoverable(self) -> None:
        if self.lam_min <= RECOVERABILITY_TOL:
            raise ValueError(f"sampling set not recoverable (lambda_min={self.lam_min:.3e})")

    @cached_property
    def gain(self) -> np.ndarray:
        """RLS gain M = (U_S^T C_S^-1 U_S)^-1, by one solve; recursion() checks
        the set and the variances before _rls_recursion reads it."""
        rows = self.rows / np.sqrt(self.c_s)[:, None]
        m_inv = rows.T @ rows
        m_inv = (m_inv + m_inv.T) / 2
        m_mat = np.linalg.solve(m_inv, np.eye(self.f))
        return (m_mat + m_mat.T) / 2

    @cached_property
    def _built(self) -> dict:  # the last recursion built: (algorithm, param) -> it
        return {}

    def recursion(self, algorithm: str, param: float) -> ErrorRecursion:
        """Error recursion of ESTIMATORS[algorithm] at param from s_hat = 0,
        after the checks its record asks for, which every call makes. Its
        arrays are read-only, so the model keeps the last one built and
        returns it again for the same (algorithm, param)."""
        self.require_recoverable()
        est = estimator(algorithm)
        if error := est.param_error(param):
            raise ValueError(error)
        if est.positive_noise and np.any(self.noise.c_w <= 0):
            raise ValueError(f"{algorithm} weighting needs strictly positive noise variances")
        key = (algorithm, param)
        if key not in self._built:
            self._built.clear()
            self._built[key] = est.build(self, param)
        return self._built[key]


def _lms_recursion(model: SignalModel, mu: float) -> ErrorRecursion:  # Gram eigenbasis V
    lam, v = model.gram_eigh
    return ErrorRecursion(decay=1.0 - mu * lam, step=mu, response=model.rows @ v,
                          delta0=-(v.T @ model.s_f), c_s=model.c_s)


def _rls_recursion(model: SignalModel, lam: float) -> ErrorRecursion:  # band coordinates
    m_mat = model.gain  # solved on first use, before the weighted rows take memory
    return ErrorRecursion(decay=np.full(model.f, lam), step=1.0 - lam,
                          response=(model.rows / model.c_s[:, None]) @ m_mat,
                          delta0=-model.s_f, c_s=model.c_s)


@dataclass(frozen=True)
class Estimator:
    """The rules of one estimator, each stated once (see ESTIMATORS)."""

    param_name: str
    in_range: Callable[[float], bool]  # applied to a finite param
    rule: str  # in_range in words
    positive_noise: bool  # its weighting divides by the noise variances
    build: Callable[[SignalModel, float], ErrorRecursion]
    stability_bound: Callable[[SignalModel], float] | None = None  # stable below it

    def param_error(self, param: float) -> str | None:
        """The message that refuses param, or None when the range holds."""
        if not (math.isfinite(param) and self.in_range(param)):
            return f"{self.param_name} must be finite and satisfy {self.rule}, got {param}"
        return None


# mu = 0 and lam = 1 are each estimator's no-update edge: the MSD stays put
ESTIMATORS = {
    "lms": Estimator(param_name="step size", in_range=lambda mu: mu >= 0, rule="mu >= 0",
                     positive_noise=False, build=_lms_recursion,
                     stability_bound=lambda model: model.mu_max),
    "rls": Estimator(param_name="forgetting factor", in_range=lambda lam: 0 < lam <= 1,
                     rule="0 < lam <= 1", positive_noise=True, build=_rls_recursion),
}


def estimator(algorithm: str) -> Estimator:
    """The record of algorithm; a ValueError lists the table's keys."""
    try:
        return ESTIMATORS[algorithm]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"algorithm must be one of {', '.join(map(repr, ESTIMATORS))}, "
                         f"got {algorithm!r}") from None


def rls_gain_matrix(band: BandBasis, sampling: SamplingSet, c_w: np.ndarray) -> np.ndarray:
    """Inverse of the noise-weighted sampled Gram matrix, by direct inversion:
    the stepwise oracle's gain (tests/oracle.py), apart from SignalModel.gain.
    Requires a recoverable set and strictly positive, finite variances."""
    c_w = np.asarray(c_w, dtype=float)
    if c_w.shape != (band.n,):
        raise ValueError(f"c_w shape {c_w.shape} != ({band.n},)")
    if not np.all(c_w > 0) or not np.isfinite(c_w).all():
        raise ValueError("RLS weighting needs strictly positive, finite noise variances")
    ok, lam_min = check_recoverability(band, sampling)
    if not ok:
        raise ValueError(f"sampling set not recoverable (lambda_min={lam_min:.3e})")
    sel = list(sampling.indices)
    u_s = band.u_f[sel, :]
    return np.linalg.inv(u_s.T @ (u_s / c_w[sel, None]))


_MAX_TILE_SIDE = 32  # a chunk holds at most 32 runs
_TILE_ROWS = 256  # a tile holds at most 256 (run, step) rows
_LANE_MIN_DRAWS = 4096  # a chunk drawing fewer per step loses more to the GIL than lanes gain


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None when it is not found; looked up on first use, never at import."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy already loaded
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, or None when it cannot be read."""
    control = _openblas()
    return None if control is None else int(control[0]())


@dataclass(frozen=True)
class RowSchedule:
    """How a row's Monte Carlo runs; see row_schedule."""

    chunk: int  # runs per chunk
    steps: int  # steps per tile
    lanes: int
    hold: bool  # OpenBLAS held at one thread

    @contextmanager
    def blas_hold(self):
        """The row's BLAS hold: OpenBLAS at one thread when the row holds, and
        the count before back on exit, also after an error; nothing otherwise.
        Yields the caller's count, None when it cannot be read."""
        before = _blas_threads()
        if not self.hold:
            yield before
            return
        set_threads = _openblas()[1]
        set_threads(1)
        try:
            yield before
        finally:
            set_threads(before)


def row_schedule(n_runs: int, n_iter: int, m: int, frozen_noise: bool) -> RowSchedule:
    """The Monte Carlo schedule of a row of n_runs runs of n_iter steps on m
    sampled nodes, from its shape, its noise protocol and the usable CPUs.

    The runs go in ceil(n_runs / side) contiguous chunks of ceil(n_runs /
    chunks) runs, the last may hold fewer, side = min(_MAX_TILE_SIDE,
    isqrt(n_iter - 1)). A tile takes _TILE_ROWS // (runs per chunk) steps of
    a chunk, at most n_iter - 1. A row with redrawn noise splits when it has
    two chunks or more, each draws at least _LANE_MIN_DRAWS normals per step
    and OpenBLAS's thread count can be set: then its Monte Carlo runs on one
    lane per usable CPU, at most one per chunk, each taking whole chunks, and
    the row holds OpenBLAS at one thread (blas_hold), even on one lane, from
    its sampling set to its last curve. Any other row, every frozen-noise row
    included (it draws once), runs on one lane at the caller's thread count.

    After a threaded call the OpenBLAS worker spins for about 0.13 s
    (OpenBLAS 0.3.31, 2 vCPUs) on the CPU a second lane needs, so a row that
    splits makes no threaded call once its sampling set is chosen. The side
    follows T so that short rows stay whole: with a fixed side of 32 the
    grid's RLS rows (50 runs, T = 200) split into 2 lanes of 25 runs at one
    BLAS thread and ran slower: 62-71 ms per row against 54-62 ms, on 2 vCPUs.
    """
    side = max(1, min(_MAX_TILE_SIDE, math.isqrt(n_iter - 1)))
    chunks = max(1, -(-n_runs // side))
    chunk = max(1, -(-n_runs // chunks))
    hold = (not frozen_noise and n_iter > 1 and chunks > 1 and chunk * m >= _LANE_MIN_DRAWS
            and _openblas() is not None)
    return RowSchedule(chunk=chunk, steps=max(1, min(n_iter - 1, _TILE_ROWS // chunk)),
                       lanes=min(_usable_cpus(), chunks) if hold else 1, hold=hold)


def _tile_loop(rec: ErrorRecursion, noise_map: np.ndarray, rngs: Sequence[np.random.Generator],
               vals: np.ndarray, tile_runs: int, tile_steps: int, z_buf: np.ndarray,
               e_buf: np.ndarray, carried: np.ndarray) -> None:
    """Fill vals[:, 1:] for the runs rngs, one chunk of tile_runs runs at a
    time, tile_steps steps per tile: each tile's draws, one matrix product,
    then its steps. The buffers hold one tile's draws and errors and the error
    each run carries into its next tile."""
    n_iter = vals.shape[1]
    m, f = noise_map.shape
    for r0 in range(0, len(rngs), tile_runs):
        chunk = rngs[r0:r0 + tile_runs]
        delta = carried[:len(chunk)]
        delta[...] = rec.delta0
        for t0 in range(1, n_iter, tile_steps):
            steps = min(tile_steps, n_iter - t0)
            rows = len(chunk) * steps
            z = z_buf[:rows * m].reshape(len(chunk), steps, m)
            for block, rng in zip(z, chunk):
                rng.standard_normal(out=block)
            tile = np.matmul(z.reshape(rows, m), noise_map, out=e_buf[:rows * f].reshape(rows, f))
            tile = tile.reshape(len(chunk), steps, f)
            step_delta = delta
            for j in range(steps):  # the tile's injected noise becomes its errors
                tile[:, j] += rec.decay * step_delta
                step_delta = tile[:, j]
            delta[...] = step_delta  # the next tile overwrites the buffer
            vals[r0:r0 + len(chunk), t0:t0 + steps] = np.einsum("rtf,rtf->rt", tile, tile)


def _msd_recursion(model: SignalModel, rec: ErrorRecursion, n_iter: int,
                   rngs: Sequence[np.random.Generator], frozen_noise: bool) -> np.ndarray:
    """Squared error norm per step of every run at once, shape (len(rngs),
    n_iter): entry 0 is the zero initial estimate's error at t = 1 and each
    later entry follows one update. The coordinates are orthonormal, so this
    is the MSD.

    Only the sampled nodes' noise enters an update, so run r draws only from
    rngs[r]: m standard normals per step, in step order and ascending node
    order, as tests/oracle.py's sampled_noise does, whatever the batch. The
    sqrt(c_s) scaling folds into one (m, f) noise map. With frozen noise each
    run draws one block of m, whose (runs, f) term enters every step.

    Otherwise the runs go in the chunks, tiles and lanes of row_schedule,
    under its BLAS hold, one matrix product per tile, so a tile's memory is
    bounded whatever n_iter is. Lane 0 runs in the calling thread and each
    other lane in its own thread; the calling thread allocates every lane's
    buffers. A run's products have the same shapes and thread count on any
    lane count, so its curve does not depend on the lane count.
    """
    if n_iter < 1:
        raise ValueError("need at least one iteration")
    n_runs, m = len(rngs), len(rec.c_s)
    noise_map = np.sqrt(rec.c_s)[:, None] * (rec.step * rec.response)
    vals = np.empty((n_runs, n_iter))
    vals[:, 0] = rec.delta0 @ rec.delta0
    if frozen_noise:
        z = np.empty((n_runs, m))
        for row, rng in zip(z, rngs):
            rng.standard_normal(out=row)
        inject = z @ noise_map
        delta = rec.delta0
        for t in range(1, n_iter):
            delta = rec.decay * delta + inject
            vals[:, t] = np.einsum("rf,rf->r", delta, delta)
        return vals
    schedule = row_schedule(n_runs, n_iter, m, frozen_noise)
    chunk, steps, lanes = schedule.chunk, schedule.steps, schedule.lanes
    chunks = -(-n_runs // chunk)
    bounds = [chunk * (i * chunks // lanes) for i in range(lanes + 1)]
    jobs = [(rngs[a:b], vals[a:b], chunk, steps, np.empty(chunk * steps * m),
             np.empty(chunk * steps * model.f), np.empty((chunk, model.f)))
            for a, b in zip(bounds, bounds[1:])]
    errors = []

    def lane(job):
        try:
            _tile_loop(rec, noise_map, *job)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    started = []
    with schedule.blas_hold():  # on any lane count, so a run's products round alike
        try:
            for job in jobs[1:]:
                thread = threading.Thread(target=lane, args=(job,))
                thread.start()
                started.append(thread)
            lane(jobs[0])
        finally:
            for thread in started:
                thread.join()
    if errors:
        raise errors[0]
    return vals


def lms_msd_trajectory(model: SignalModel, mu: float, n_iter: int,
                       rngs: Sequence[np.random.Generator],
                       frozen_noise: bool = False) -> np.ndarray:
    """MSD curves of LMS runs as _msd_recursion gives them; a traced entry point
    (perfbench/tracer.py), identical to iterating tests/oracle.py's lms_step."""
    return _msd_recursion(model, model.recursion("lms", mu), n_iter, rngs, frozen_noise)


def rls_msd_trajectory(model: SignalModel, lam: float, n_iter: int,
                       rngs: Sequence[np.random.Generator],
                       frozen_noise: bool = False) -> np.ndarray:
    """The same for RLS runs; a traced entry point, matching the oracle's rls_step."""
    return _msd_recursion(model, model.recursion("rls", lam), n_iter, rngs, frozen_noise)
