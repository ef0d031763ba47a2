"""kNN Gaussian similarity graph over pooled samples."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    import scipy.sparse as sp

# knn_graph's sigma2 value for the squared median pairwise distance
SIGMA2_AUTO = "auto"


def edge_list(M: sp.spmatrix):
    """(B0, v) over the nonzeros i < j of the symmetric m x m matrix M:
    the E x m signed incidence matrix B0, +1 at i and -1 at j, and the
    entries v = M_ij.  Every ordered-pair sum over a symmetric graph is
    twice the sum over these edges."""
    import scipy.sparse as sp

    upper = sp.triu(M, k=1, format="coo")
    E = upper.nnz
    B0 = sp.csr_matrix(
        (np.tile([1.0, -1.0], E), np.column_stack([upper.row, upper.col]).ravel(),
         np.arange(0, 2 * E + 1, 2)),
        shape=(E, M.shape[0]),
    )
    return B0, upper.data


# the signs of an edge's entries (i, i), (j, j), (i, j), (j, i) in a
# Laplacian, the order of laplacian_pattern's slots
_LAPLACIAN_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def laplacian_pattern(B0: sp.csr_matrix):
    """(indices, indptr, slots) for the incidence matrix B0 of
    ``edge_list``: the CSR pattern of B0^T B0, rows sorted, and for each
    edge in order the positions of its entries (i, i), (j, j), (i, j),
    (j, i) in that pattern."""
    m = B0.shape[1]
    i, j = B0.indices[0::2], B0.indices[1::2]
    rows = np.column_stack([i, j, i, j]).ravel()
    cols = np.column_stack([i, j, j, i]).ravel()
    keys, slots = np.unique(rows.astype(np.int64) * m + cols, return_inverse=True)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // m, minlength=m))])
    return (keys % m).astype(B0.indices.dtype), indptr.astype(B0.indptr.dtype), slots


@dataclass(frozen=True)
class SimilarityGraph:
    """Sparse symmetric nonnegative sample-similarity weights.

    ``weights`` is (m x m) CSR with zero diagonal and entries in [0, 1];
    row i holds at most 2K nonzeros (K out-neighbors plus
    symmetrization fill-in).  ``edges`` is ``edge_list(weights)`` and
    ``pattern`` is ``laplacian_pattern`` of its incidence matrix, the
    fixed CSR pattern that every reweighted Laplacian ``laplacian(a)``
    of the graph shares, and ``signs`` holds each edge's four scatter
    signs; all three are built once when the graph is created.
    """

    weights: sp.csr_matrix
    k_neighbors: int
    sigma2: float
    edges: tuple = field(init=False, repr=False, compare=False)
    pattern: tuple = field(init=False, repr=False, compare=False)
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", edge_list(self.weights))
        object.__setattr__(self, "pattern", laplacian_pattern(self.edges[0]))
        object.__setattr__(self, "signs", np.tile(_LAPLACIAN_SIGNS, len(self.edges[1])))

    def laplacian(self, a: np.ndarray) -> sp.csr_matrix:
        """B0^T diag(a) B0 for edge weights a over ``edges``, scattered
        into ``pattern`` with no sparse product: each edge adds +a to
        (i, i) and (j, j) and puts -a at (i, j) and (j, i).  bincount
        adds each diagonal sum in edge order, as the product B0^T
        (diag(a) B0) does, so the arrays are that product's bit for bit."""
        import scipy.sparse as sp

        indices, indptr, slots = self.pattern
        entries = np.repeat(a, 4) * self.signs
        data = np.bincount(slots, weights=entries, minlength=len(indices))
        return sp.csr_matrix((data, indices, indptr), shape=(self.m, self.m))

    @property
    def m(self) -> int:
        return self.weights.shape[0]


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between columns of a and b."""
    a2 = np.sum(a * a, axis=0)
    b2 = np.sum(b * b, axis=0)
    d2 = a2[:, None] + b2[None, :] - 2.0 * (a.T @ b)
    return np.maximum(d2, 0.0)


def _median_dist(d2: np.ndarray) -> float:
    """Median of sqrt(d2) over the pairs i < j of a squared-distance
    matrix, np.median(np.sqrt(...)) bit for bit.  sqrt is monotone and
    correctly rounded, so the middle order statistics of the squared
    distances are the roots of the distances' middle ones, and only those
    are rooted.  As in np.median, an even count averages the middle two
    and any NaN distance, which sorts last, gives NaN.  One partition
    point: np.partition at several is about ten times slower."""
    idx = np.arange(d2.shape[0])
    sq = d2[idx[:, None] < idx]
    half = sq.size // 2
    part = np.partition(sq, half)
    mid = [part[half]] if sq.size % 2 else [part[:half].max(), part[half]]
    med = float("nan") if np.isnan(part[half:].max()) else float(np.sqrt(mid).mean())
    if med == 0.0:
        raise InputError("median pairwise distance is zero (all points coincide)")
    return med


def median_heuristic(data: np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct unordered pairs."""
    data = np.asarray(data, dtype=float)
    if data.shape[1] < 2:
        raise InputError("median heuristic needs at least 2 samples")
    return _median_dist(pairwise_sq_dists(data, data))


def nearest(d2: np.ndarray, K: int) -> np.ndarray:
    """Column indices of the K smallest entries of each row of d2, by
    (distance, index): np.argsort(d2, axis=1, kind="stable")[:, :K]
    without sorting whole rows.  argpartition picks any K entries up to
    the K-th distance, so a row with a tie at that distance, where it
    may pick a larger index, is sorted in full."""
    order = np.argpartition(d2, K - 1, axis=1)[:, :K]
    dist = np.take_along_axis(d2, order, axis=1)
    order = np.take_along_axis(order, np.lexsort((order, dist), axis=1), axis=1)
    tied = np.count_nonzero(d2 <= dist.max(axis=1)[:, None], axis=1) > K
    if tied.any():
        order[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :K]
    return order


def knn_graph(data: np.ndarray, K: int, sigma2: float | str) -> SimilarityGraph:
    """Symmetrized K-nearest-neighbor Gaussian similarity graph.

    Directed weights exp(-||x_i - x_j||^2 / (2 sigma2)) to the K nearest
    neighbors of each column (self excluded, distance ties broken by
    smaller index), then symmetrized by averaging with the transpose.
    sigma2 = SIGMA2_AUTO takes median_heuristic(data) ** 2 from the
    distances the graph is built from; the graph records the value.
    """
    import scipy.sparse as sp

    data = np.asarray(data, dtype=float)
    m = data.shape[1]
    if K <= 0 or K >= m:
        raise InputError(f"K must satisfy 1 <= K < m, got K={K}, m={m}")
    if sigma2 != SIGMA2_AUTO and sigma2 <= 0:
        raise InputError(f"sigma2 must be positive, got {sigma2}")
    d2 = pairwise_sq_dists(data, data)
    if sigma2 == SIGMA2_AUTO:
        sigma2 = _median_dist(d2) ** 2
    np.fill_diagonal(d2, np.inf)
    order = nearest(d2, K)
    rows = np.repeat(np.arange(m), K)
    cols = order.ravel()
    vals = np.exp(-d2[rows, cols] / (2.0 * sigma2))
    w = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    # no point is its own neighbor, so the diagonal stays empty
    w = (w + w.T) * 0.5
    w.eliminate_zeros()
    return SimilarityGraph(weights=w.tocsr(), k_neighbors=K, sigma2=float(sigma2))
