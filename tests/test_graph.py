import numpy as np
import pytest
import scipy.sparse as sp

from ratioscope.errors import DegenerateData, InvalidK
from ratioscope.graph import SIGMA2_AUTO, SimilarityGraph, knn_graph, median_heuristic


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

    def test_degenerate(self):
        with pytest.raises(DegenerateData):
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

    def test_invalid_k(self):
        X = np.zeros((1, 3))
        with pytest.raises(InvalidK):
            knn_graph(X, 0, 1.0)
        with pytest.raises(InvalidK):
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
        with pytest.raises(DegenerateData):
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
