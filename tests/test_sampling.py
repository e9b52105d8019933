"""Sampling sets, recoverability and the greedy eigenvalue-driven selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gspest import (
    BandBasis,
    ExperimentConfig,
    SamplingSet,
    band_select,
    build_knn_graph,
    check_recoverability,
    gft_basis,
    greedy_max_lambda_min,
    laplacian,
    random_sampling,
    run_experiment,
    sampled_gram,
    synthetic_stations,
)
from gspest import sampling
from gspest.sampling import _arrowhead_min_eig, _rank_one_min_eig

from conftest import SMALL_CONFIG, random_orthonormal


def duplicated_rows_basis(n_distinct, f, n_dup, seed):
    """Orthonormal basis whose first n_dup rows each appear twice in a row.

    Each duplicated row is scaled by 1/sqrt(2), so the columns stay
    orthonormal and the two copies are bit-identical: candidates that tie
    exactly.
    """
    q = random_orthonormal(n_distinct, f, seed).u_f
    rows = []
    for i in range(n_distinct):
        if i < n_dup:
            half = q[i] / np.sqrt(2.0)
            rows += [half, half.copy()]
        else:
            rows.append(q[i])
    return BandBasis(f=f, u_f=np.array(rows))


def unpruned_greedy(band, m):
    """The greedy selection scoring every candidate with full bisections."""
    u = band.u_f
    n, f = u.shape
    row_sq = np.einsum("ij,ij->i", u, u)
    selected = []
    cross = np.empty((0, n))
    full_gram = None
    for _ in range(m):
        s = len(selected)
        if s == 0:
            scores = row_sq.copy()
        elif s < f:
            compact = cross[:, selected]
            d, q = np.linalg.eigh((compact + compact.T) / 2)
            scores = _arrowhead_min_eig(d, q.T @ cross, row_sq)
        else:
            if full_gram is None:
                rows = u[selected, :]
                gram = rows.T @ rows
                full_gram = (gram + gram.T) / 2
            lam, q = np.linalg.eigh(full_gram)
            scores = _rank_one_min_eig(lam, q.T @ u.T)
        scores[selected] = -np.inf
        j = int(np.argmax(scores))
        selected.append(j)
        cross = np.vstack([cross, u @ u[j]])
        if full_gram is not None:
            full_gram = full_gram + np.outer(u[j], u[j])
    return tuple(sorted(selected))


class TestSamplingSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingSet(indices=(), n=4)
        with pytest.raises(ValueError):
            SamplingSet(indices=(1, 1), n=4)
        with pytest.raises(ValueError):
            SamplingSet(indices=(2, 1), n=4)
        with pytest.raises(ValueError):
            SamplingSet(indices=(0, 4), n=4)

    def test_size(self):
        s = SamplingSet(indices=(0, 2), n=4)
        assert s.size == 2


class TestGramAndRecoverability:
    def test_gram_eigenvalues_in_unit_interval(self):
        band = random_orthonormal(12, 5, seed=3)
        s = SamplingSet(indices=tuple(range(7)), n=12)
        vals = np.linalg.eigvalsh(sampled_gram(band, s))
        assert vals[0] >= -1e-12
        assert vals[-1] <= 1.0 + 1e-12

    def test_full_sampling_gram_is_identity(self):
        band = random_orthonormal(9, 4, seed=5)
        s = SamplingSet(indices=tuple(range(9)), n=9)
        assert_allclose(sampled_gram(band, s), np.eye(4), atol=1e-12)
        ok, lam_min = check_recoverability(band, s)
        assert ok
        assert_allclose(lam_min, 1.0, rtol=1e-12)

    def test_fewer_samples_than_bandwidth_not_recoverable(self):
        band = random_orthonormal(10, 4, seed=7)
        s = SamplingSet(indices=(0, 1, 2), n=10)
        ok, lam_min = check_recoverability(band, s)
        assert not ok
        assert lam_min <= 1e-8


class TestSecularSolvers:
    """The greedy scorer solves two structured eigenvalue problems by
    bisection; both are checked against a dense solve."""

    def test_arrowhead_against_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = rng.integers(1, 6)
            k = rng.integers(1, 8)
            w = rng.standard_normal((s, s))
            w = (w + w.T) / 2
            d, q = np.linalg.eigh(w)
            border = rng.standard_normal((s, k))
            delta = rng.standard_normal(k)
            got = _arrowhead_min_eig(d, q.T @ border, delta)
            for j in range(k):
                full = np.zeros((s + 1, s + 1))
                full[:s, :s] = w
                full[:s, s] = border[:, j]
                full[s, :s] = border[:, j]
                full[s, s] = delta[j]
                want = np.linalg.eigvalsh(full)[0]
                assert abs(got[j] - want) < 1e-9

    def test_arrowhead_zero_coupling(self):
        # decoupled border: the spectrum is the union, smallest of the two
        d = np.array([0.5, 2.0])
        got = _arrowhead_min_eig(d, np.zeros((2, 1)), np.array([0.1]))
        assert_allclose(got[0], 0.1, atol=1e-10)

    def test_rank_one_against_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            f = rng.integers(1, 6)
            k = rng.integers(1, 8)
            g = rng.standard_normal((f, f))
            g = g @ g.T  # PSD
            lam, q = np.linalg.eigh(g)
            updates = rng.standard_normal((f, k))
            got = _rank_one_min_eig(lam, q.T @ updates)
            for j in range(k):
                want = np.linalg.eigvalsh(g + np.outer(updates[:, j], updates[:, j]))[0]
                assert abs(got[j] - want) < 1e-9

    def test_rank_one_repeated_lowest_eigenvalue(self):
        lam = np.array([0.3, 0.3, 1.0])
        z = np.array([[0.4], [0.0], [0.2]])
        got = _rank_one_min_eig(lam, z)
        g = np.diag(lam) + z @ z.T
        assert_allclose(got[0], np.linalg.eigvalsh(g)[0], atol=1e-10)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_rank_one_property(self, data):
        f = data.draw(st.integers(min_value=1, max_value=5))
        vals = data.draw(st.lists(st.floats(min_value=0.01, max_value=3.0),
                                  min_size=f, max_size=f))
        upd = data.draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                                 min_size=f, max_size=f))
        lam = np.sort(np.asarray(vals))
        z = np.asarray(upd)[:, None]
        got = _rank_one_min_eig(lam, z)[0]
        want = np.linalg.eigvalsh(np.diag(lam) + z @ z.T)[0]
        assert abs(got - want) < 1e-9


class TestGreedySelection:
    def test_reported_lambda_min_matches_dense(self):
        band = random_orthonormal(10, 4, seed=2)
        s = greedy_max_lambda_min(band, 6)
        ok, lam_min = check_recoverability(band, s)
        assert ok
        dense = np.linalg.eigvalsh(sampled_gram(band, s))[0]
        assert_allclose(lam_min, dense, rtol=1e-12)

    def test_beats_median_random_set(self):
        band = random_orthonormal(10, 4, seed=2)
        greedy = greedy_max_lambda_min(band, 5)
        _, lam_greedy = check_recoverability(band, greedy)
        rng = np.random.default_rng(0)
        draws = []
        for _ in range(1000):
            idx = np.sort(rng.choice(10, size=5, replace=False))
            cand = SamplingSet(indices=tuple(int(i) for i in idx), n=10)
            draws.append(check_recoverability(band, cand)[1])
        assert lam_greedy >= np.median(draws)

    def test_single_sample_single_band_vector(self):
        band = random_orthonormal(3, 1, seed=9)
        s = greedy_max_lambda_min(band, 1)
        want = int(np.argmax(band.u_f[:, 0] ** 2))
        assert s.indices == (want,)

    def test_all_nodes(self):
        band = random_orthonormal(7, 3, seed=4)
        s = greedy_max_lambda_min(band, 7)
        assert s.indices == tuple(range(7))
        _, lam_min = check_recoverability(band, s)
        assert_allclose(lam_min, 1.0, rtol=1e-12)

    def test_m_bounds(self):
        band = random_orthonormal(8, 3, seed=4)
        with pytest.raises(ValueError):
            greedy_max_lambda_min(band, 2)
        with pytest.raises(ValueError):
            greedy_max_lambda_min(band, 9)

    def test_deterministic(self):
        band = random_orthonormal(12, 5, seed=6)
        sampling._greedy_memo.clear()  # both calls compute, neither reads the memo
        first = greedy_max_lambda_min(band, 8).indices
        sampling._greedy_memo.clear()
        assert greedy_max_lambda_min(band, 8).indices == first

    def test_greedy_is_exhaustive_optimum_on_tiny_instance(self):
        # Greedy step 1 of m=1, f=1 is the global optimum by construction;
        # check m=2 against all pairs for a 5-node, f=2 instance.
        from itertools import combinations

        band = random_orthonormal(5, 2, seed=8)
        greedy = greedy_max_lambda_min(band, 2)
        _, lam_greedy = check_recoverability(band, greedy)
        best = max(
            check_recoverability(band, SamplingSet(indices=pair, n=5))[1]
            for pair in combinations(range(5), 2)
        )
        # greedy is not globally optimal in general, but must reach at least
        # the best set containing its own first pick
        first = greedy.indices[0]
        best_with_first = max(
            check_recoverability(band, SamplingSet(indices=tuple(sorted((first, j))), n=5))[1]
            for j in range(5)
            if j != first
        )
        assert lam_greedy >= best_with_first - 1e-12
        assert lam_greedy <= best + 1e-12


class TestSameSamplingSet:
    """Pruning the greedy scorer must not change which nodes it picks."""

    # sha256 of ",".join(indices), recorded with every candidate bisected in full
    GOLDEN = {
        (8, 200, 210): "239e76b89e9478b9a6f2ac58793769b11c8cd9b4e7a1b0f296a6370c7898e109",
        (16, 160, 210): "dfcdf79ff9d7f6abd06e43e5215980f9aee74d4ab8bbbc3dcf2797de9d2320d1",
    }

    def test_reference_grid_cases(self):
        import hashlib

        stations = synthetic_stations(299, 2018)
        for (k, f, m), want in self.GOLDEN.items():
            band = band_select(gft_basis(laplacian(build_knn_graph(stations, k))), f)
            got = greedy_max_lambda_min(band, m).indices
            assert hashlib.sha256(",".join(map(str, got)).encode()).hexdigest() == want

    def test_exact_ties_pick_the_lower_index(self):
        band = duplicated_rows_basis(6, 3, 6, seed=1)  # every row appears twice
        got = greedy_max_lambda_min(band, 3).indices
        assert got == unpruned_greedy(band, 3)
        assert all(i % 2 == 0 for i in got)  # first copy of each duplicated row

    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_unpruned_selection(self, data):
        kind = data.draw(st.sampled_from(["random", "duplicated", "knn"]))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        if kind == "knn":
            n = data.draw(st.integers(min_value=6, max_value=40))
            k = data.draw(st.integers(min_value=2, max_value=5))
            basis = gft_basis(laplacian(build_knn_graph(synthetic_stations(n, seed), k)))
            band = band_select(basis, data.draw(st.integers(min_value=1, max_value=n)))
        elif kind == "duplicated":
            n_distinct = data.draw(st.integers(min_value=2, max_value=20))
            f = data.draw(st.integers(min_value=1, max_value=n_distinct))
            n_dup = data.draw(st.integers(min_value=1, max_value=n_distinct))
            band = duplicated_rows_basis(n_distinct, f, n_dup, seed)
        else:
            n = data.draw(st.integers(min_value=1, max_value=40))
            band = random_orthonormal(n, data.draw(st.integers(min_value=1, max_value=n)), seed)
        m = data.draw(st.integers(min_value=band.f, max_value=band.n))
        assert greedy_max_lambda_min(band, m).indices == unpruned_greedy(band, m)


@pytest.fixture
def greedy_runs(monkeypatch):
    """Empty the greedy memo and record the m of every uncached selection."""
    sampling._greedy_memo.clear()
    runs = []
    select = sampling._greedy_select

    def counted(band, m):
        runs.append(m)
        return select(band, m)

    monkeypatch.setattr(sampling, "_greedy_select", counted)
    return runs


class TestGreedyMemo:
    def test_warm_hit_equals_cold_recomputation(self, greedy_runs):
        import hashlib

        stations = synthetic_stations(299, 2018)
        for (k, f, m), want in TestSameSamplingSet.GOLDEN.items():
            band = band_select(gft_basis(laplacian(build_knn_graph(stations, k))), f)
            greedy_max_lambda_min(band, m)
            warm = greedy_max_lambda_min(band, m)
            sampling._greedy_memo.clear()
            cold = greedy_max_lambda_min(band, m)
            assert warm == cold
            assert hashlib.sha256(",".join(map(str, warm.indices)).encode()).hexdigest() == want
        assert greedy_runs == [210, 210, 210, 210]

    def test_key_is_basis_bytes_and_m(self, greedy_runs):
        band = random_orthonormal(12, 5, seed=6)
        first = greedy_max_lambda_min(band, 8)
        assert greedy_max_lambda_min(BandBasis(f=5, u_f=band.u_f.copy()), 8) is first
        assert greedy_runs == [8]
        nudged = band.u_f.copy()
        nudged[3, 2] = np.nextafter(nudged[3, 2], np.inf)
        greedy_max_lambda_min(BandBasis(f=5, u_f=nudged), 8)
        assert greedy_runs == [8, 8]
        greedy_max_lambda_min(band, 9)
        assert greedy_runs == [8, 8, 9]

    def test_bounded_oldest_evicted_first(self, greedy_runs):
        band = random_orthonormal(40, 2, seed=3)
        sizes = range(2, 2 + sampling._GREEDY_MEMO_SIZE + 5)
        for m in sizes:
            greedy_max_lambda_min(band, m)
            assert len(sampling._greedy_memo) <= sampling._GREEDY_MEMO_SIZE
        greedy_max_lambda_min(band, sizes[-1])  # newest: kept
        greedy_max_lambda_min(band, sizes[0])  # oldest: evicted
        assert greedy_runs == [*sizes, sizes[0]]

    def test_one_selection_per_sampling_key_across_rows(self, greedy_runs):
        for mu in (0.3, 0.5):
            run_experiment(ExperimentConfig(**{**SMALL_CONFIG, "param": mu, "runs": 2}))
        assert greedy_runs == [SMALL_CONFIG["sample_size"]]


class TestRandomSampling:
    def test_deterministic_and_recoverable(self):
        band = random_orthonormal(10, 4, seed=2)
        a = random_sampling(band, 6, seed=123)
        b = random_sampling(band, 6, seed=123)
        assert a.indices == b.indices
        assert check_recoverability(band, a)[0]

    def test_m_bounds(self):
        band = random_orthonormal(10, 4, seed=2)
        with pytest.raises(ValueError):
            random_sampling(band, 3, seed=1)
