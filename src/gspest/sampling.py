"""Sampling sets over graph nodes and recoverability of bandlimited signals.

A sampling set S keeps observations on a subset of nodes. Estimation in a
band of width f is well posed when the f x f Gram matrix of the selected
basis rows has smallest eigenvalue bounded away from zero; that eigenvalue
also fixes the stable range of adaptation step sizes.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .graph import BandBasis

RECOVERABILITY_TOL = 1e-8

_MAX_ATTEMPTS = 100  # random draws before random_sampling gives up
_GREEDY_MEMO_SIZE = 16  # greedy sets kept in process, oldest evicted first

_BISECT_ITERS = 80
_PRUNE_EVERY = 4  # halvings between pruning passes of the greedy scorer

# (sha256 of u_f, u_f shape, m) -> greedy set. Module-level on purpose: the
# reference grid asks for 2 sets over 24 rows, and every caller of
# greedy_max_lambda_min gains without passing a cache around.
_greedy_memo: dict[tuple, "SamplingSet"] = {}


@dataclass(frozen=True)
class SamplingSet:
    """Sorted node indices observed out of n graph nodes."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) == 0:
            raise ValueError("sampling set must not be empty")
        if len(set(idx)) != len(idx):
            raise ValueError("sampling indices must be unique")
        if list(idx) != sorted(idx):
            raise ValueError("sampling indices must be sorted ascending")
        if idx[0] < 0 or idx[-1] >= self.n:
            raise ValueError(f"indices must lie in [0, {self.n})")

    @property
    def size(self) -> int:
        return len(self.indices)


def sampled_gram(band: BandBasis, sampling: SamplingSet) -> np.ndarray:
    """Gram matrix of the selected basis rows (f x f, PSD, eigenvalues <= 1)."""
    if sampling.n != band.n:
        raise ValueError("sampling set and basis disagree on node count")
    rows = band.u_f[list(sampling.indices), :]
    gram = rows.T @ rows
    return (gram + gram.T) / 2


def check_recoverability(band: BandBasis, sampling: SamplingSet) -> tuple[bool, float]:
    """Whether the sampled Gram matrix is invertible in practice.

    Returns (ok, lambda_min) where ok requires lambda_min > 1e-8. Fewer
    samples than the bandwidth forces rank deficiency and ok = False.
    """
    vals = np.linalg.eigvalsh(sampled_gram(band, sampling))
    lam_min = float(vals[0])
    return lam_min > RECOVERABILITY_TOL, lam_min


def _bisect(lo: np.ndarray, hi: np.ndarray, root_above, data: tuple,
            live: np.ndarray | None = None) -> np.ndarray:
    """Bisect the root brackets [lo, hi] of many columns at once.

    root_above(theta, *data) tells, per column, whether the root lies above
    theta; data holds per-column arrays (columns on the last axis). Without
    a live mask every column takes _BISECT_ITERS halvings and the midpoints
    are returned.

    With a boolean live mask only the largest root matters: columns outside
    the mask score -inf, and every _PRUNE_EVERY halvings a live column whose
    hi lies below the largest lo among live columns is dropped, scoring
    -inf as well. Its root is at most that hi and the best root at least
    that lo, so it cannot be the largest; exact ties are never dropped. The
    loop ends early once one column is left. A column that stays live takes
    the same halvings as without the mask, so argmax of the result, lowest
    index among ties, is argmax of the unpruned roots.
    """
    out = np.full(lo.shape[0], -np.inf)
    cols = np.arange(lo.shape[0]) if live is None else np.flatnonzero(live)
    lo, hi, data = lo[cols], hi[cols], tuple(a[..., cols] for a in data)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_BISECT_ITERS):
            if live is not None and it % _PRUNE_EVERY == 0:
                keep = hi >= lo.max()
                if not keep.all():
                    cols, lo, hi = cols[keep], lo[keep], hi[keep]
                    data = tuple(a[..., keep] for a in data)
                if cols.shape[0] == 1:
                    break
            theta = 0.5 * (lo + hi)
            above = root_above(theta, *data)
            lo = np.where(above, theta, lo)
            hi = np.where(above, hi, theta)
    out[cols] = 0.5 * (lo + hi)
    return out


def _arrowhead_min_eig(d: np.ndarray, beta: np.ndarray, delta: np.ndarray,
                       live: np.ndarray | None = None) -> np.ndarray:
    """Smallest eigenvalue of [[W, b], [b^T, delta]] for many borders at once.

    d is the ascending spectrum of W; beta holds each border vector rotated
    into W's eigenbasis, one candidate per column. The smallest eigenvalue is
    the unique root of the secular function below d[0] (Cauchy interlacing),
    bracketed by a Gershgorin bound and found by bisection. The function is
    strictly decreasing there, so the bisection is safe. A live mask prunes
    as in _bisect.
    """
    # Gershgorin lower bound in the rotated coordinates
    abs_beta = np.abs(beta)
    lo_rows = np.min(d[:, None] - abs_beta, axis=0)
    lo_corner = delta - abs_beta.sum(axis=0)
    lo = np.minimum(lo_rows, lo_corner) - 1e-12
    hi = np.full(beta.shape[1], d[0])

    def root_above(theta, beta_sq, delta):
        return delta - theta - np.sum(beta_sq / (d[:, None] - theta[None, :]), axis=0) > 0

    return _bisect(lo, hi, root_above, (beta * beta, delta), live)


def _rank_one_min_eig(lam: np.ndarray, z: np.ndarray,
                      live: np.ndarray | None = None) -> np.ndarray:
    """Smallest eigenvalue of G + u u^T for many update vectors at once.

    lam is the ascending spectrum of G, z the updates rotated into G's
    eigenbasis (one per column). For a positive rank-one update the smallest
    eigenvalue sits in [lam[0], lam[1]]; on that interval the secular
    function is strictly increasing, so bisection converges to it. A zero
    first component (or a repeated lowest eigenvalue) collapses the bracket
    onto lam[0], which is then exactly right. A live mask prunes as in
    _bisect.
    """
    k = z.shape[1]
    z_sq = z * z
    lo = np.full(k, lam[0])
    if lam.shape[0] > 1:
        hi = np.full(k, lam[1])
    else:
        hi = lam[0] + z_sq.sum(axis=0)  # 1x1 case: exact eigenvalue

    def root_above(theta, z_sq):
        return 1.0 + np.sum(z_sq / (lam[:, None] - theta[None, :]), axis=0) < 0

    return _bisect(lo, hi, root_above, (z_sq,), live)


def greedy_max_lambda_min(band: BandBasis, m: int) -> SamplingSet:
    """Grow a sampling set node by node, maximizing the smallest eigenvalue.

    Each step adds the node whose addition maximizes the smallest eigenvalue
    of the sampled Gram matrix; exact ties resolve to the lower node index.
    While fewer than f nodes are selected that eigenvalue is zero for every
    candidate, so the selection maximizes the smallest eigenvalue restricted
    to the span of the chosen rows (the compact Gram of the selected rows),
    which is the same criterion once the set reaches full rank. Candidates
    that provably cannot win a step stop being bisected (see _bisect); the
    chosen nodes are those of scoring every candidate fully.

    Deterministic. Requires f <= m <= n. The set depends only on the bytes of
    band.u_f and on m, so the last _GREEDY_MEMO_SIZE sets are kept in process
    under that key and a repeated call returns the kept set.
    """
    n, f = band.n, band.f
    if not f <= m <= n:
        raise ValueError(f"sample count must satisfy {f} <= m <= {n}, got {m}")
    u = np.ascontiguousarray(band.u_f)
    key = (hashlib.sha256(u.tobytes()).hexdigest(), u.shape, int(m))
    chosen = _greedy_memo.get(key)
    if chosen is None:
        chosen = _greedy_select(band, m)
        while len(_greedy_memo) >= _GREEDY_MEMO_SIZE:  # evict the oldest first
            del _greedy_memo[next(iter(_greedy_memo))]
        _greedy_memo[key] = chosen
    return chosen


def _greedy_select(band: BandBasis, m: int) -> SamplingSet:
    """The selection of greedy_max_lambda_min, computed without the memo."""
    n, f = band.n, band.f
    u = band.u_f
    row_sq = np.einsum("ij,ij->i", u, u)
    selected: list[int] = []
    live = np.ones(n, dtype=bool)
    cross = np.empty((f, n))  # cross[a, j] = <row selected[a], row j>
    full_gram: np.ndarray | None = None
    for _ in range(m):
        s = len(selected)
        if s == 0:
            scores = row_sq
        elif s < f:
            compact = cross[:s, selected]
            compact = (compact + compact.T) / 2
            d, q = np.linalg.eigh(compact)
            scores = _arrowhead_min_eig(d, q.T @ cross[:s], row_sq, live)
        else:
            if full_gram is None:
                rows = u[selected, :]
                full_gram = rows.T @ rows
                full_gram = (full_gram + full_gram.T) / 2
            lam, q = np.linalg.eigh(full_gram)
            scores = _rank_one_min_eig(lam, q.T @ u.T, live)
        j = int(np.argmax(scores))
        selected.append(j)
        live[j] = False
        if s + 1 < f:  # the next compact Gram needs this row
            cross[s] = u @ u[j]
        if full_gram is not None:
            full_gram = full_gram + np.outer(u[j], u[j])
    return SamplingSet(indices=tuple(sorted(selected)), n=n)


def random_sampling(band: BandBasis, m: int, seed) -> SamplingSet:
    """Uniform random sampling set, retried until recoverable.

    Draws size-m subsets without replacement and returns the first one whose
    Gram matrix passes the recoverability check; raises ValueError after
    _MAX_ATTEMPTS failures. Deterministic given the seed.
    """
    n, f = band.n, band.f
    if not f <= m <= n:
        raise ValueError(f"sample count must satisfy {f} <= m <= {n}, got {m}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        idx = np.sort(rng.choice(n, size=m, replace=False))
        cand = SamplingSet(indices=tuple(int(i) for i in idx), n=n)
        ok, _ = check_recoverability(band, cand)
        if ok:
            return cand
    raise ValueError(f"no recoverable sampling set found in {_MAX_ATTEMPTS} attempts")
