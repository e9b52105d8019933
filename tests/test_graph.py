"""Graph construction, Laplacian basis and band projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from gspest import (
    BandBasis,
    Graph,
    StationTable,
    band_select,
    build_knn_graph,
    gft_basis,
    haversine_km,
    laplacian,
    project_bandlimited,
)

# Great-circle quarter and half circumference for a 6371 km radius.
QUARTER_KM = 10007.543398010286
HALF_KM = 20015.086796020572


def stations_from(coords):
    coords = np.asarray(coords, dtype=float)
    ids = tuple(f"s{i}" for i in range(coords.shape[0]))
    return StationTable(ids=ids, coords=coords, signal=np.zeros(coords.shape[0]))


coord_strategy = st.tuples(
    st.floats(min_value=-80.0, max_value=80.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


class TestHaversine:
    def test_zero_distance(self):
        p = np.array([[12.5, -40.0]])
        assert haversine_km(p, p)[0] == 0.0

    def test_quarter_circumference(self):
        d = haversine_km(np.array([[0.0, 0.0]]), np.array([[0.0, 90.0]]))
        assert_allclose(d[0], QUARTER_KM, rtol=1e-12)
        d = haversine_km(np.array([[0.0, 0.0]]), np.array([[90.0, 0.0]]))
        assert_allclose(d[0], QUARTER_KM, rtol=1e-12)

    def test_half_circumference(self):
        d = haversine_km(np.array([[0.0, 0.0]]), np.array([[0.0, 180.0]]))
        assert_allclose(d[0], HALF_KM, rtol=1e-12)

    def test_vectorized(self):
        a = np.array([[0.0, 0.0], [10.0, 10.0], [-30.0, 50.0]])
        b = np.array([[0.0, 90.0], [10.0, 10.0], [60.0, -120.0]])
        d = haversine_km(a, b)
        assert d.shape == (3,)
        assert d[1] == 0.0

    @given(p=coord_strategy, q=coord_strategy)
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, p, q):
        a = np.array([list(p)])
        b = np.array([list(q)])
        d_ab = haversine_km(a, b)[0]
        d_ba = haversine_km(b, a)[0]
        assert_allclose(d_ab, d_ba, rtol=1e-12, atol=1e-9)
        assert 0.0 <= d_ab <= HALF_KM + 1e-6


class TestKnnGraph:
    def test_collinear_path(self):
        # Three stations along the equator; nearest-neighbour union gives a path.
        st_ = stations_from([[0.0, 0.0], [0.0, 1.0], [0.0, 2.5]])
        g = build_knn_graph(st_, 1)
        assert g.edge_list() == [(0, 1), (1, 2)]

    def test_path_laplacian_spectrum(self):
        st_ = stations_from([[0.0, 0.0], [0.0, 1.0], [0.0, 2.5]])
        lap = laplacian(build_knn_graph(st_, 1))
        assert_allclose(np.linalg.eigvalsh(lap), [0.0, 1.0, 3.0], atol=1e-12)

    def test_triangle_laplacian_spectrum(self):
        st_ = stations_from([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]])
        lap = laplacian(build_knn_graph(st_, 2))
        assert_allclose(np.linalg.eigvalsh(lap), [0.0, 3.0, 3.0], atol=1e-12)

    def test_duplicate_coordinates_tie_breaks_to_lower_index(self):
        # Station 2 is equidistant from 0 and 1; the lower index wins.
        st_ = stations_from([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        g = build_knn_graph(st_, 1)
        assert g.edge_list() == [(0, 1), (0, 2)]

    def test_k_bounds(self):
        st_ = stations_from([[0.0, 0.0], [0.0, 1.0], [0.0, 2.5]])
        with pytest.raises(ValueError):
            build_knn_graph(st_, 0)
        with pytest.raises(ValueError):
            build_knn_graph(st_, 3)

    def test_deterministic(self, stations10):
        a = build_knn_graph(stations10, 3).adjacency
        b = build_knn_graph(stations10, 3).adjacency
        assert_array_equal(a, b)

    @given(
        coords=st.lists(coord_strategy, min_size=4, max_size=10, unique=True),
        k=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40)
    def test_invariants(self, coords, k):
        g = build_knn_graph(stations_from(coords), k)
        adj = g.adjacency
        assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert set(np.unique(adj)) <= {0.0, 1.0}
        # union symmetrization keeps every node's own k selections
        assert np.all(adj.sum(axis=1) >= 1)

    @given(
        base=st.lists(coord_strategy, min_size=1, max_size=6),
        picks=st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=16),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_ties_match_a_per_row_lexsort(self, base, picks, data):
        # stations repeat coordinates of a few distinct points, so most rows
        # hold ties; each must go to the lower index, as a (distance, index)
        # lexsort orders them
        coords = np.array([base[i % len(base)] for i in picks], dtype=float)
        n = coords.shape[0]
        k = data.draw(st.integers(min_value=1, max_value=n - 1))
        dist = haversine_km(coords[:, None, :], coords[None, :, :])
        np.fill_diagonal(dist, np.inf)
        want = np.zeros((n, n))
        for i in range(n):
            want[i, np.lexsort((np.arange(n), dist[i]))[:k]] = 1.0
        want = np.maximum(want, want.T)
        assert_array_equal(build_knn_graph(stations_from(coords), k).adjacency, want)

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
        with pytest.raises(ValueError):
            Graph(adjacency=np.array([[1.0, 1.0], [1.0, 0.0]]))  # self loop
        with pytest.raises(ValueError):
            Graph(adjacency=np.array([[0.0, 0.5], [0.5, 0.0]]))  # non-binary


class TestGftBasis:
    def test_rows_of_laplacian_sum_to_zero(self, stations10):
        lap = laplacian(build_knn_graph(stations10, 3))
        assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)

    def test_orthonormal_and_ascending(self, stations10):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))
        gram = basis.vectors.T @ basis.vectors
        assert np.max(np.abs(gram - np.eye(10))) < 1e-10
        assert np.all(np.diff(basis.eigenvalues) >= -1e-10)
        assert abs(basis.eigenvalues[0]) < 1e-10  # connected graph: one zero mode

    def test_eigen_residual(self, stations10):
        lap = laplacian(build_knn_graph(stations10, 3))
        basis = gft_basis(lap)
        for j in range(basis.n):
            v = basis.vectors[:, j]
            resid = np.max(np.abs(lap @ v - basis.eigenvalues[j] * v))
            assert resid <= 1e-8 * (1.0 + abs(basis.eigenvalues[j]))

    def test_sign_convention(self, stations10):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))
        for j in range(basis.n):
            col = basis.vectors[:, j]
            big = np.nonzero(np.abs(col) > 1e-9)[0]
            assert col[big[0]] > 0

    def test_deterministic(self, stations10):
        lap = laplacian(build_knn_graph(stations10, 3))
        assert_array_equal(gft_basis(lap).vectors, gft_basis(lap).vectors)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gft_basis(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestBandProjection:
    def test_band_select_bounds(self, stations10):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))
        with pytest.raises(ValueError):
            band_select(basis, 0)
        with pytest.raises(ValueError):
            band_select(basis, 11)

    def test_full_band_is_identity(self, stations10):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))
        band = band_select(basis, 10)
        x = stations10.signal
        _, x_o = project_bandlimited(band, x)
        assert_allclose(x_o, x, rtol=0, atol=1e-10)

    def test_coefficients_match_inner_products(self, stations10):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))
        band = band_select(basis, 4)
        x = stations10.signal
        s_f, _ = project_bandlimited(band, x)
        assert_allclose(s_f, band.u_f.T @ x, rtol=1e-12)

    @given(values=st.lists(st.floats(min_value=-50, max_value=50),
                           min_size=10, max_size=10))
    @settings(max_examples=40)
    def test_idempotent_and_contractive(self, stations10, values):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))
        band = band_select(basis, 4)
        x = np.asarray(values)
        s_f, x_o = project_bandlimited(band, x)
        s2, x2 = project_bandlimited(band, x_o)
        assert_allclose(x2, x_o, rtol=0, atol=1e-9 * (1 + np.max(np.abs(x))))
        assert_allclose(s2, s_f, rtol=0, atol=1e-9 * (1 + np.max(np.abs(s_f))))
        assert x_o @ x_o <= x @ x + 1e-9

    def test_band_select_keeps_the_checked_columns_without_a_second_check(
            self, stations10, monkeypatch):
        basis = gft_basis(laplacian(build_knn_graph(stations10, 3)))

        def refuse(band):
            raise AssertionError("the band's columns were checked again")

        monkeypatch.setattr(BandBasis, "__post_init__", refuse)
        band = band_select(basis, 4)
        assert band.f == 4 and band.n == 10
        assert_array_equal(band.u_f, basis.vectors[:, :4])
        assert not band.u_f.flags.writeable

    def test_band_basis_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            BandBasis(f=1, u_f=np.array([[0.5], [0.5]]))
