import numpy as np
import pytest
import scipy.sparse as sp

from ratioscope import cli
from ratioscope import graph as graph_module
from ratioscope.data import apply_standardizer, fit_standardizer, load_csv, pool
from ratioscope.errors import InputError
from ratioscope.graph import (
    SIGMA2_AUTO,
    SimilarityGraph,
    knn_graph,
    median_heuristic,
    pairwise_sq_dists,
)


def stable_argsort_nearest(d2, K):
    """The full-sort neighbor selection that nearest replaces."""
    return np.argsort(d2, axis=1, kind="stable")[:, :K]


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic(np.array([[0.0, 2.0]])) == pytest.approx(2.0)

    def test_three_points(self):
        # pairwise distances {1, 2, 3} -> median 2
        assert median_heuristic(np.array([[0.0, 1.0, 3.0]])) == pytest.approx(2.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 50))
        dists = []
        for i in range(50):
            for j in range(i + 1, 50):
                dists.append(float(np.linalg.norm(X[:, i] - X[:, j])))
        assert median_heuristic(X) == pytest.approx(np.median(dists), abs=1e-12)

    @pytest.mark.parametrize("m", range(2, 12))
    def test_median_dist_equals_the_np_median_of_roots(self, m):
        # m = 4, 5, 8, 9 give even pair counts; the integer grids tie
        # distances, and repeated columns put ties at zero
        rng = np.random.default_rng(m)
        cases = [
            rng.normal(size=(3, m)),
            rng.integers(0, 3, size=(2, m)).astype(float),
            rng.normal(size=(4, m))[:, rng.integers(0, max(m // 2, 2), size=m)],
        ]
        for X in cases:
            d2 = pairwise_sq_dists(X, X)
            expected = float(np.median(np.sqrt(d2[np.triu_indices(m, k=1)])))
            if expected == 0.0:
                with pytest.raises(InputError, match="coincide"):
                    graph_module._median_dist(d2)
            else:
                assert graph_module._median_dist(d2).hex() == expected.hex()

    def test_median_dist_of_a_nan_distance_is_nan(self):
        X = np.array([[0.0, 1.0, 3.0, 4.0]])
        d2 = pairwise_sq_dists(X, X)
        d2[0, 3] = np.nan
        assert np.isnan(np.median(np.sqrt(d2[np.triu_indices(4, k=1)])))
        assert np.isnan(graph_module._median_dist(d2))

    def test_degenerate(self):
        with pytest.raises(InputError, match="coincide"):
            median_heuristic(np.ones((2, 4)))


class TestKnnGraph:
    def test_coincident_points(self):
        g = knn_graph(np.zeros((2, 2)) + np.array([[1.0, 1.0], [2.0, 2.0]]), 1, 0.7)
        w = g.weights.toarray()
        assert w[0, 1] == pytest.approx(1.0)
        assert w[1, 0] == pytest.approx(1.0)
        assert w[0, 0] == 0.0

    def test_hand_enumeration(self):
        # neighbors (K=1): 0 -> 1, 1 -> 0, 2 -> 1
        g = knn_graph(np.array([[0.0, 1.0, 10.0]]), 1, 0.5)
        w = g.weights.toarray()
        assert w[0, 1] == pytest.approx(np.exp(-1.0))
        assert w[1, 2] == pytest.approx(0.5 * np.exp(-81.0))
        assert w[0, 2] == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        g = knn_graph(rng.normal(size=(3, 30)), 5, 2.0)
        w = g.weights.toarray()
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_sparsity_bound(self):
        rng = np.random.default_rng(2)
        K = 4
        g = knn_graph(rng.normal(size=(2, 40)), K, 1.0)
        nnz_per_row = np.diff(g.weights.indptr)
        assert np.all(nnz_per_row <= 2 * K)

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(3, 20))
        small = knn_graph(X, 3, 0.5).weights.toarray()
        large = knn_graph(X, 3, 5.0).weights.toarray()
        mask = small > 0
        assert np.all(large[mask] >= small[mask])

    def test_deterministic_tie_break(self):
        # points 1 and 2 are equidistant from 0; the smaller index wins
        # (point 3 keeps point 2 from reciprocating via symmetrization)
        X = np.array([[0.0, 1.0, -1.0, -1.5]])
        g = knn_graph(X, 1, 1.0)
        w = g.weights.toarray()
        assert w[0, 1] > 0
        assert w[0, 2] == 0.0

    def test_partial_selection_matches_the_stable_argsort(self):
        # half the cases are integer-lattice data, full of distance ties
        rng = np.random.default_rng(7)
        for case in range(300):
            d, m = int(rng.integers(1, 6)), int(rng.integers(2, 60))
            K = int(rng.integers(1, m))
            X = (rng.integers(-2, 3, size=(d, m)).astype(float) if case % 2
                 else rng.normal(size=(d, m)))
            d2 = pairwise_sq_dists(X, X)
            np.fill_diagonal(d2, np.inf)
            assert np.array_equal(graph_module.nearest(d2, K), stable_argsort_nearest(d2, K))

    @pytest.mark.parametrize("d", [10, 100])
    def test_cli_fit_graphs_match_the_full_sort(self, d, tmp_path, monkeypatch):
        # the graphs `ratioscope fit` builds on synth trials 0-3, at the
        # default K and bandwidth, keep their bytes
        for trial in range(4):
            out = tmp_path / f"t{trial}"
            assert cli.main(["synth", "--d", str(d), "--seed", "0", "--trial", str(trial),
                             "--out-dir", str(out)]) == 0
            inliers, _ = load_csv(out / "inliers.csv", id_prefix="in-")
            test, _ = load_csv(out / "test.csv", id_prefix="te-")
            stats = fit_standardizer(inliers)
            features = pool(apply_standardizer(inliers, stats),
                            apply_standardizer(test, stats)).features
            with monkeypatch.context() as patch:
                patch.setattr(graph_module, "nearest", stable_argsort_nearest)
                full_sort = knn_graph(features, 7, SIGMA2_AUTO).weights
            partial = knn_graph(features, 7, SIGMA2_AUTO).weights
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(partial, name), getattr(full_sort, name))

    def test_invalid_k(self):
        X = np.zeros((1, 3))
        with pytest.raises(InputError, match="K must"):
            knn_graph(X, 0, 1.0)
        with pytest.raises(InputError, match="K must"):
            knn_graph(X, 3, 1.0)

    def test_auto_sigma2_is_the_squared_median_heuristic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 35))
        g = knn_graph(X, 5, SIGMA2_AUTO)
        assert g.sigma2 == median_heuristic(X) ** 2
        explicit = knn_graph(X, 5, median_heuristic(X) ** 2)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(g.weights, name), getattr(explicit.weights, name))

    def test_auto_sigma2_coincident_points(self):
        with pytest.raises(InputError, match="coincide"):
            knn_graph(np.ones((2, 4)), 2, SIGMA2_AUTO)


class TestEdgeList:
    def test_direct_graph_matches_knn_graph(self):
        # a graph built from its weights alone, as the solver tests build
        # theirs, carries the edge list knn_graph's graph carries
        rng = np.random.default_rng(4)
        g = knn_graph(rng.normal(size=(3, 25)), 4, 1.5)
        direct = SimilarityGraph(
            weights=sp.csr_matrix(g.weights.toarray()), k_neighbors=4, sigma2=1.5
        )
        (B0, r), (B0_direct, r_direct) = g.edges, direct.edges
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(B0, name), getattr(B0_direct, name))
        assert np.array_equal(r, r_direct)

    def test_one_row_per_edge_i_below_j(self):
        rng = np.random.default_rng(5)
        g = knn_graph(rng.normal(size=(2, 30)), 3, 1.0)
        B0, r = g.edges
        assert B0.shape == (g.weights.nnz // 2, g.m)
        i, j = B0.indices[0::2], B0.indices[1::2]
        assert np.all(i < j)
        assert np.array_equal(B0.data, np.tile([1.0, -1.0], len(r)))
        assert np.array_equal(r, g.weights.toarray()[i, j])

    def test_laplacian_scatters_into_the_product_pattern(self):
        # the fixed pattern is that of B0^T B0, and scattering edge
        # weights a into it gives B0^T diag(a) B0
        rng = np.random.default_rng(6)
        for K, m in ((1, 2), (3, 30), (6, 40)):
            g = knn_graph(rng.normal(size=(3, m)), K, 1.0)
            B0, r = g.edges
            indices, indptr, slots = g.pattern
            product = (B0.T @ B0).tocsr()
            assert np.array_equal(indices, product.indices)
            assert np.array_equal(indptr, product.indptr)
            assert slots.shape == (4 * len(r),)
            a = rng.integers(1, 100, size=len(r)).astype(float)
            L = g.laplacian(a)
            assert np.array_equal(L.indices, indices) and np.array_equal(L.indptr, indptr)
            assert np.array_equal(L.toarray(), (B0.T @ sp.diags(a) @ B0).toarray())

    def test_edgeless_graph_has_an_empty_laplacian(self):
        g = SimilarityGraph(weights=sp.csr_matrix((3, 3)), k_neighbors=1, sigma2=1.0)
        L = g.laplacian(np.zeros(0))
        assert L.shape == (3, 3) and L.nnz == 0
        assert np.array_equal(L.indptr, [0, 0, 0, 0])
