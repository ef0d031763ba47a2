import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import as_scipy
from ratioscope import cli
from ratioscope import graph as graph_module
from ratioscope.data import apply_standardizer, fit_standardizer, load_csv, pool
from ratioscope.errors import InputError
from ratioscope.graph import (
    SIGMA2_AUTO,
    Csr,
    SimilarityGraph,
    edge_list,
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

    def test_degenerate(self):
        with pytest.raises(InputError, match="coincide"):
            median_heuristic(np.ones((2, 4)))

    def test_one_sample(self):
        with pytest.raises(InputError, match="median heuristic needs at least 2 samples"):
            median_heuristic(np.ones((2, 1)))

    def test_overflowing_distances_raise(self):
        # used to return nan after three raw RuntimeWarnings
        with pytest.raises(InputError, match=r"^squared pairwise distances overflow"):
            median_heuristic(np.array([[1e200, -1e200, 3e199]]))

    @pytest.mark.parametrize("shape", [(20,), (2, 3, 4), ()])
    def test_data_not_2d_is_named_by_shape(self, shape):
        # a 1-D array used to raise a bare IndexError from shape[1]
        data = np.arange(float(np.prod(shape))).reshape(shape)
        expected = rf"data must be a d x m matrix with d, m >= 1, got shape {re.escape(str(shape))}"
        with pytest.raises(InputError, match=expected):
            median_heuristic(data)
        with pytest.raises(InputError, match=expected):
            knn_graph(data, 3, SIGMA2_AUTO)


class TestKnnGraph:
    def test_coincident_points(self):
        g = knn_graph(np.zeros((2, 2)) + np.array([[1.0, 1.0], [2.0, 2.0]]), 1, 0.7)
        w = as_scipy(g.weights).toarray()
        assert w[0, 1] == pytest.approx(1.0)
        assert w[1, 0] == pytest.approx(1.0)
        assert w[0, 0] == 0.0

    def test_hand_enumeration(self):
        # neighbors (K=1): 0 -> 1, 1 -> 0, 2 -> 1
        g = knn_graph(np.array([[0.0, 1.0, 10.0]]), 1, 0.5)
        w = as_scipy(g.weights).toarray()
        assert w[0, 1] == pytest.approx(np.exp(-1.0))
        assert w[1, 2] == pytest.approx(0.5 * np.exp(-81.0))
        assert w[0, 2] == 0.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        g = knn_graph(rng.normal(size=(3, 30)), 5, 2.0)
        w = as_scipy(g.weights).toarray()
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
        small = as_scipy(knn_graph(X, 3, 0.5).weights).toarray()
        large = as_scipy(knn_graph(X, 3, 5.0).weights).toarray()
        mask = small > 0
        assert np.all(large[mask] >= small[mask])

    def test_deterministic_tie_break(self):
        # points 1 and 2 are equidistant from 0; the smaller index wins
        # (point 3 keeps point 2 from reciprocating via symmetrization)
        X = np.array([[0.0, 1.0, -1.0, -1.5]])
        g = knn_graph(X, 1, 1.0)
        w = as_scipy(g.weights).toarray()
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

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_sigma2(self, sigma2):
        # NaN used to pass the check and give all-NaN weights
        X = np.random.default_rng(0).normal(size=(3, 20))
        with pytest.raises(InputError, match=r"sigma2 must be a number in \(0, inf\)"):
            knn_graph(X, 3, sigma2)

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
            weights=sp.csr_matrix(as_scipy(g.weights).toarray()), k_neighbors=4, sigma2=1.5
        )
        (B0, r), (B0_direct, r_direct) = g.edges, direct.edges
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(B0, name), getattr(B0_direct, name))
        assert np.array_equal(r, r_direct)

    def test_one_row_per_edge_i_below_j(self):
        rng = np.random.default_rng(5)
        g = knn_graph(rng.normal(size=(2, 30)), 3, 1.0)
        B0, r = g.edges
        assert B0.shape == (as_scipy(g.weights).nnz // 2, g.m)
        i, j = B0.indices[0::2], B0.indices[1::2]
        assert np.all(i < j)
        assert np.array_equal(B0.data, np.tile([1.0, -1.0], len(r)))
        assert np.array_equal(r, as_scipy(g.weights).toarray()[i, j])

    def test_laplacian_scatters_into_the_product_pattern(self):
        # the fixed pattern is that of B0^T B0, and scattering edge
        # weights a into it gives B0^T diag(a) B0
        rng = np.random.default_rng(6)
        for K, m in ((1, 2), (3, 30), (6, 40)):
            g = knn_graph(rng.normal(size=(3, m)), K, 1.0)
            B0, r = g.edges
            B0 = as_scipy(B0)
            indices, indptr, slots = g.pattern
            product = (B0.T @ B0).tocsr()
            assert np.array_equal(indices, product.indices)
            assert np.array_equal(indptr, product.indptr)
            assert slots.shape == (4 * len(r),)
            a = rng.integers(1, 100, size=len(r)).astype(float)
            L = g.laplacian(a)
            assert np.array_equal(L.indices, indices) and np.array_equal(L.indptr, indptr)
            assert np.array_equal(as_scipy(L).toarray(), (B0.T @ sp.diags(a) @ B0).toarray())

    def test_edgeless_graph_has_an_empty_laplacian(self):
        g = SimilarityGraph(weights=sp.csr_matrix((3, 3)), k_neighbors=1, sigma2=1.0)
        L = g.laplacian(np.zeros(0))
        assert L.shape == (3, 3) and as_scipy(L).nnz == 0
        assert np.array_equal(L.indptr, [0, 0, 0, 0])


def random_csr(rng, m, n, density, canonical=True):
    """(data, indices, indptr) of a random m x n CSR matrix with about
    density * n entries a row, some rows empty; unless canonical, rows
    hold repeated and unsorted column indices."""
    counts = rng.binomial(n, density, size=m) * (rng.random(m) < 0.8)
    if not canonical:
        counts = counts + rng.integers(0, 3, size=m) * (n > 0)
    cols = [np.sort(rng.choice(n, c, replace=False)) if canonical else rng.integers(0, n, c)
            for c in counts]
    indices = np.concatenate([np.zeros(0, np.int64), *cols]).astype(np.int32)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    data = rng.normal(size=len(indices)) * rng.choice([1e-300, 1.0, 1e300], len(indices))
    return data, indices, indptr


def old_scipy_knn_weights(data, K, sigma2):
    """knn_graph's weights as scipy.sparse built them: the directed kNN
    weights, (w + w.T) * 0.5, eliminate_zeros()."""
    m = data.shape[1]
    d2 = pairwise_sq_dists(data, data)
    np.fill_diagonal(d2, np.inf)
    rows, cols = np.repeat(np.arange(m), K), graph_module.nearest(d2, K).ravel()
    w = sp.csr_matrix((np.exp(graph_module.log_gauss(d2[rows, cols], sigma2)), (rows, cols)),
                      shape=(m, m))
    w = (w + w.T) * 0.5
    w.eliminate_zeros()
    return w.tocsr()


class TestScipyKernel:
    """graph.Csr multiplies through scipy's own compiled CSR kernel, and
    knn_graph and edge_list build in numpy the arrays scipy.sparse built;
    all of it must keep scipy's bits."""

    @pytest.mark.parametrize("m,n", [(7, 5), (30, 30), (1, 9), (9, 1), (6, 6), (0, 4), (4, 0)])
    @pytest.mark.parametrize("canonical", [True, False])
    def test_products_and_diagonal_match_scipy(self, m, n, canonical):
        rng = np.random.default_rng(m * 100 + n + canonical)
        for density in (0.0, 0.2, 0.9):
            arrays = random_csr(rng, m, n, density, canonical)
            ours, theirs = Csr(*arrays, (m, n)), sp.csr_matrix(arrays, shape=(m, n))
            for k in (1, 2, 5):
                for other in (rng.normal(size=(n, k)), np.asfortranarray(rng.normal(size=(n, k))),
                              rng.normal(size=(k, n)).T):
                    product = ours @ other
                    assert product.dtype == np.float64 and product.flags.c_contiguous
                    assert np.array_equal(product, theirs @ other)
            assert np.array_equal(ours.diagonal(), theirs.diagonal())

    def test_mismatched_product_is_refused(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            Csr(np.zeros(0), np.zeros(0, np.int32), np.zeros(4, np.int32), (3, 2)) @ np.ones((3, 2))

    @pytest.mark.parametrize("seed", range(12))
    def test_knn_graph_arrays_match_the_old_scipy_construction(self, seed):
        # integer coordinates tie many distances (and coincide some
        # points); the tiny bandwidths underflow part of the kernel to 0,
        # or to a subnormal that halving rounds to 0, all eliminated
        rng = np.random.default_rng(seed)
        d, m = int(rng.integers(1, 4)), int(rng.integers(2, 40))
        data = rng.integers(-3, 4, size=(d, m)) * 1.0 if seed % 2 else rng.normal(size=(d, m))
        K = int(rng.integers(1, m))
        for sigma2 in (2.0, 1 / 600, 1 / 1400, 1e-300):
            w, old = knn_graph(data, K, sigma2).weights, old_scipy_knn_weights(data, K, sigma2)
            for name in ("data", "indices", "indptr"):
                ours, theirs = getattr(w, name), getattr(old, name)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    @pytest.mark.parametrize("canonical", [True, False])
    def test_edge_list_matches_scipy_triu(self, canonical):
        rng = np.random.default_rng(7 + canonical)
        for m in (0, 1, 5, 30):
            arrays = random_csr(rng, m, m, 0.3, canonical)
            B0, v = edge_list(Csr(*arrays, (m, m)))
            upper = sp.triu(sp.csr_matrix(arrays, shape=(m, m)), k=1, format="coo")
            assert B0.shape == (upper.nnz, m) and np.array_equal(v, upper.data)
            assert np.array_equal(B0.indices, np.column_stack([upper.row, upper.col]).ravel())
            assert np.array_equal(B0.indptr, np.arange(0, 2 * upper.nnz + 1, 2))
            assert np.array_equal(B0.data, np.tile([1.0, -1.0], upper.nnz))

    def test_kernel_loads_once_from_scipy_sparse_alone(self):
        # two threads race to load it in a fresh interpreter; it comes
        # from scipy/sparse/_sparsetools without running scipy/__init__,
        # and a later import of scipy.sparse keeps its own copy
        src = os.path.dirname(os.path.dirname(os.path.abspath(graph_module.__file__)))
        code = (
            f"import os, sys, threading; sys.path.insert(0, {src!r})\n"
            "from ratioscope import graph\n"
            "barrier, got = threading.Barrier(2), []\n"
            "def load(): barrier.wait(); got.append(graph._kernel())\n"
            "threads = [threading.Thread(target=load) for _ in range(2)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
            "kernel = got[0]\n"
            "print(got[1] is kernel, sys.modules['ratioscope._sparsetools'] is kernel)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "import scipy.sparse\n"
            "print(os.path.samefile(kernel.__file__, scipy.sparse._sparsetools.__file__),\n"
            "      kernel is not scipy.sparse._sparsetools)\n"
            "print((scipy.sparse.eye(2, format='csr') @ [[1.0], [2.0]]).ravel().tolist())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.splitlines() == ["True True", "[]", "True True", "[1.0, 2.0]"]
