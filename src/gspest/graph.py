"""Geographic station graphs and their Fourier (Laplacian eigenvector) bases.

Stations with lat/lon coordinates are linked to their k nearest neighbours
under great-circle distance. The combinatorial Laplacian of that graph
supplies an orthonormal frequency basis; a signal is "bandlimited" when it
lives in the span of the first few basis vectors.
"""

from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0

# Threshold below which an eigenvector entry is treated as zero when fixing
# the sign of each basis vector.
_SIGN_EPS = 1e-9

_ORTHO_TOL = 1e-10


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only view of values; the caller's own array stays writeable."""
    out = np.asarray(values, dtype=dtype).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StationTable:
    """Measurement sites: ids, (lat, lon) in degrees, one scalar value each."""

    ids: tuple[str, ...]
    coords: np.ndarray  # shape (n, 2), degrees
    signal: np.ndarray  # shape (n,)

    def __post_init__(self):
        coords = _frozen_array(self.coords)
        signal = _frozen_array(self.signal)
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "signal", signal)
        n = len(self.ids)
        if n < 2:
            raise ValueError(f"need at least 2 stations, got {n}")
        if len(set(self.ids)) != n:
            raise ValueError("station ids must be unique")
        if coords.shape != (n, 2):
            raise ValueError(f"coords shape {coords.shape} != ({n}, 2)")
        if signal.shape != (n,):
            raise ValueError(f"signal shape {signal.shape} != ({n},)")
        if not (np.isfinite(coords).all() and np.isfinite(signal).all()):
            raise ValueError("coordinates and signal values must be finite")

    @property
    def n(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class Graph:
    """Undirected unweighted graph as a dense 0/1 adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = _frozen_array(self.adjacency)
        object.__setattr__(self, "adjacency", adj)
        n = adj.shape[0]
        if adj.shape != (n, n):
            raise ValueError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValueError("self loops are not allowed")
        if not np.isin(adj, (0.0, 1.0)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.any(adj.sum(axis=1) < 1):
            raise ValueError("every node needs at least one edge")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edge_list(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency))
        return list(zip(i.tolist(), j.tolist()))


@dataclass(frozen=True)
class GftBasis:
    """Full eigendecomposition of a graph Laplacian, frequencies ascending."""

    eigenvalues: np.ndarray  # shape (n,), non-decreasing
    vectors: np.ndarray  # shape (n, n), orthonormal columns

    def __post_init__(self):
        vals = _frozen_array(self.eigenvalues)
        vecs = _frozen_array(self.vectors)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "vectors", vecs)
        n = vals.shape[0]
        if vecs.shape != (n, n):
            raise ValueError("vectors must be square and match eigenvalues")
        if np.any(np.diff(vals) < -1e-10):
            raise ValueError("eigenvalues must be non-decreasing")
        gram = vecs.T @ vecs
        if np.max(np.abs(gram - np.eye(n))) > _ORTHO_TOL:
            raise ValueError("eigenvector columns must be orthonormal")

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class BandBasis:
    """The first f frequency vectors: the subspace of admissible signals."""

    f: int
    u_f: np.ndarray  # shape (n, f)

    def __post_init__(self):
        u_f = _frozen_array(self.u_f)
        object.__setattr__(self, "u_f", u_f)
        n, f = u_f.shape
        if self.f != f:
            raise ValueError(f"f={self.f} does not match basis width {f}")
        if not 1 <= f <= n:
            raise ValueError(f"bandwidth must satisfy 1 <= f <= {n}, got {f}")
        gram = u_f.T @ u_f
        if np.max(np.abs(gram - np.eye(f))) > _ORTHO_TOL:
            raise ValueError("band basis columns must be orthonormal")

    @property
    def n(self) -> int:
        return self.u_f.shape[0]


def haversine_km(coords_a: np.ndarray, coords_b: np.ndarray) -> np.ndarray:
    """Great-circle distances in km between lat/lon degree pairs.

    The last axis holds (lat, lon); the leading axes broadcast, so
    (c[:, None, :], c[None, :, :]) gives the pairwise distance matrix.
    """
    a = np.radians(coords_a)
    b = np.radians(coords_b)
    dlat = b[..., 0] - a[..., 0]
    dlon = b[..., 1] - a[..., 1]
    h = np.sin(dlat / 2) ** 2 + np.cos(a[..., 0]) * np.cos(b[..., 0]) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def build_knn_graph(stations: StationTable, k: int) -> Graph:
    """Link every station to its k nearest neighbours, then symmetrize.

    Distance is great-circle on the sphere. Neighbour ties (equidistant
    candidates, e.g. duplicate coordinates) resolve to the lower station
    index, so the result is deterministic. An edge is kept when either
    endpoint selected the other (union rule), with unit weight.
    """
    n = stations.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= {n - 1}, got {k}")
    c = stations.coords
    dist = haversine_km(c[:, None, :], c[None, :, :])
    np.fill_diagonal(dist, np.inf)
    # a stable sort keeps equal distances in index order, so the lower index wins
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    adj = np.zeros((n, n))
    np.put_along_axis(adj, nearest, 1.0, axis=1)
    adj = np.maximum(adj, adj.T)
    return Graph(adjacency=adj)


def laplacian(graph: Graph) -> np.ndarray:
    """Combinatorial Laplacian: degree matrix minus adjacency."""
    adj = graph.adjacency
    return np.diag(adj.sum(axis=1)) - adj


def gft_basis(lap: np.ndarray) -> GftBasis:
    """Eigendecompose a symmetric Laplacian into an ordered frequency basis.

    Eigenvalues come back ascending. Each eigenvector is normalised to a
    deterministic sign: its first entry of magnitude above 1e-9 is made
    positive, so repeated runs on one numpy/BLAS build and thread count give
    the same basis. Another build or thread count may round the eigenvectors
    differently, enough to change greedy sampling picks downstream.
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if lap.shape != (n, n):
        raise ValueError("laplacian must be square")
    scale = max(1.0, float(np.max(np.abs(lap))))
    if np.max(np.abs(lap - lap.T)) > 1e-10 * scale:
        raise ValueError("laplacian must be symmetric")
    vals, vecs = np.linalg.eigh(lap)  # raises LinAlgError if no convergence
    big = np.abs(vecs) > _SIGN_EPS
    flip = big.any(axis=0) & (vecs[big.argmax(axis=0), np.arange(n)] < 0)
    return GftBasis(eigenvalues=vals, vectors=np.where(flip, -vecs, vecs))


def band_select(basis: GftBasis, f: int) -> BandBasis:
    """Keep the first f (lowest-frequency) basis vectors.

    GftBasis checked that its columns are orthonormal, so BandBasis's check
    is not made again: its threaded product would leave OpenBLAS's worker
    spinning (about 0.13 s) under the Monte Carlo lanes of the row after it.
    """
    if not 1 <= f <= basis.n:
        raise ValueError(f"bandwidth must satisfy 1 <= f <= {basis.n}, got {f}")
    band = object.__new__(BandBasis)  # without __post_init__, see above
    object.__setattr__(band, "f", f)
    object.__setattr__(band, "u_f", basis.vectors[:, :f])  # a read-only view
    return band


def project_bandlimited(band: BandBasis, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project a node signal onto the band: returns (coefficients, node signal).

    The second return value is the bandlimited part of x; applying the
    projection to it again is the identity.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (band.n,):
        raise ValueError(f"signal shape {x.shape} != ({band.n},)")
    s_f = band.u_f.T @ x
    x_o = band.u_f @ s_f
    return s_f, x_o
