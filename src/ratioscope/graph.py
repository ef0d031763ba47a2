"""kNN Gaussian similarity graph over pooled samples."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateData, InvalidK

# knn_graph's sigma2 value for the squared median pairwise distance
SIGMA2_AUTO = "auto"


def edge_list(M: sp.spmatrix):
    """(B0, v) over the nonzeros i < j of the symmetric m x m matrix M:
    the E x m signed incidence matrix B0, +1 at i and -1 at j, and the
    entries v = M_ij.  Every ordered-pair sum over a symmetric graph is
    twice the sum over these edges."""
    upper = sp.triu(M, k=1, format="coo")
    E = upper.nnz
    B0 = sp.csr_matrix(
        (np.tile([1.0, -1.0], E), np.column_stack([upper.row, upper.col]).ravel(),
         np.arange(0, 2 * E + 1, 2)),
        shape=(E, M.shape[0]),
    )
    return B0, upper.data


@dataclass(frozen=True)
class SimilarityGraph:
    """Sparse symmetric nonnegative sample-similarity weights.

    ``weights`` is (m x m) CSR with zero diagonal and entries in [0, 1];
    row i holds at most 2K nonzeros (K out-neighbors plus
    symmetrization fill-in).  ``edges`` is ``edge_list(weights)``,
    built once when the graph is created.
    """

    weights: sp.csr_matrix
    k_neighbors: int
    sigma2: float
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", edge_list(self.weights))

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
    """Median of sqrt(d2) over the pairs i < j of a squared-distance matrix."""
    iu = np.triu_indices(d2.shape[0], k=1)
    med = float(np.median(np.sqrt(d2[iu])))
    if med == 0.0:
        raise DegenerateData("median pairwise distance is zero (all points coincide)")
    return med


def median_heuristic(data: np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct unordered pairs."""
    data = np.asarray(data, dtype=float)
    if data.shape[1] < 2:
        raise DegenerateData("median heuristic needs at least 2 samples")
    return _median_dist(pairwise_sq_dists(data, data))


def knn_graph(data: np.ndarray, K: int, sigma2: float | str) -> SimilarityGraph:
    """Symmetrized K-nearest-neighbor Gaussian similarity graph.

    Directed weights exp(-||x_i - x_j||^2 / (2 sigma2)) to the K nearest
    neighbors of each column (self excluded, distance ties broken by
    smaller index), then symmetrized by averaging with the transpose.
    sigma2 = SIGMA2_AUTO takes median_heuristic(data) ** 2 from the
    distances the graph is built from; the graph records the value.
    """
    data = np.asarray(data, dtype=float)
    m = data.shape[1]
    if K <= 0 or K >= m:
        raise InvalidK(f"K must satisfy 1 <= K < m, got K={K}, m={m}")
    if sigma2 != SIGMA2_AUTO and sigma2 <= 0:
        raise InvalidK(f"sigma2 must be positive, got {sigma2}")
    d2 = pairwise_sq_dists(data, data)
    if sigma2 == SIGMA2_AUTO:
        sigma2 = _median_dist(d2) ** 2
    np.fill_diagonal(d2, np.inf)
    # stable argsort keeps the smaller index on distance ties
    order = np.argsort(d2, axis=1, kind="stable")[:, :K]
    rows = np.repeat(np.arange(m), K)
    cols = order.ravel()
    vals = np.exp(-d2[rows, cols] / (2.0 * sigma2))
    w = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    # no point is its own neighbor, so the diagonal stays empty
    w = (w + w.T) * 0.5
    w.eliminate_zeros()
    return SimilarityGraph(weights=w.tocsr(), k_neighbors=K, sigma2=float(sigma2))
