"""On-demand crisp clustering of the structure store.

Structures are grouped with DBSCAN under the typicality-derived structure
distance; stream points (or grid points) are then labeled by their
nearest structure under the squared-typicality decision distance. Noise
structures keep unique singleton cluster ids so that every structure, and
therefore every point, always has a label.

DBSCAN reads the engine's own distance matrix (SpcModel.distances()),
assignment the engine's per-structure distance kernels
(SpcModel.sq_distance_rows()); no spread is copied or factored again.
Assignment takes the points a block at a time (its values bound cache use,
its points amortize each structure row's numpy calls) and keeps a running
minimum over the rows, so it holds O(P + block * d) values for P points
rather than a structures-by-points matrix, and it transforms only the
squared distances that can still beat a point's running winner.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .engine import SpcModel
from .errors import DimensionMismatch
from .typicality import _typicality_of_dsq
from . import linalg

# Blocks of this many float64 values (128 KiB) stay in cache; blocks of at
# least _BLOCK_POINTS points pay each structure row's calls over many points.
_BLOCK_VALUES = 2**14
_BLOCK_POINTS = 128


@dataclass
class ClusterLabels:
    """Map from structure identifier to cluster id; ids dense from 0."""

    labels: dict[int, int]

    @property
    def n_clusters(self) -> int:
        return len(set(self.labels.values()))


def labels_from_distances(d: np.ndarray, epsilon: float, min_pts: int) -> list[int]:
    """DBSCAN given a precomputed symmetric distance matrix."""
    n = d.shape[0]
    # every neighbour list, in ascending order, as one slice of one flat list
    # of Python ints; NaN is never within epsilon
    close = d <= epsilon
    flat = np.nonzero(close)[1].tolist()
    ends = np.count_nonzero(close, axis=1).cumsum().tolist()
    neighbors = [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]
    is_core = [len(nb) >= min_pts for nb in neighbors]

    labels = [-1] * n
    cluster = 0
    for i in range(n):
        # a labeled core has been expanded; an item that is not core stays
        # noise unless a later cluster claims it as border
        if labels[i] != -1 or not is_core[i]:
            continue
        labels[i] = cluster
        seeds = deque(neighbors[i])
        while seeds:
            j = seeds.popleft()
            if labels[j] == -1:
                labels[j] = cluster
                if is_core[j]:
                    seeds.extend(neighbors[j])
        cluster += 1

    for i in range(n):
        if labels[i] == -1:
            labels[i] = cluster
            cluster += 1
    return labels


def get_clustering(model: SpcModel) -> ClusterLabels:
    """Cluster the model's structures with DBSCAN over SpcModel.distances()."""
    if not len(model):
        raise ValueError("model holds no structures to cluster")
    labels = labels_from_distances(model.distances(), model.params.epsilon, model.params.min_pts)
    return ClusterLabels(labels=dict(zip(model.ids(), labels)))


def pairwise_structure_distances(factors, m: float) -> np.ndarray:
    """Symmetric structure-distance matrix from (mean, lower Cholesky factor) pairs.

    Same arithmetic as structure_distance pair by pair; each structure's
    factor is reused across its row. The library never calls it: it is the
    reference that tests hold SpcModel.distances() to, bit for bit to d = 3.
    """
    n = len(factors)
    d_sq = np.zeros((n, n))
    for i, (mu_i, chol_i) in enumerate(factors):
        for j, (mu_j, _) in enumerate(factors):
            delta = mu_j - mu_i  # zero on the diagonal
            d_sq[i, j] = linalg.solve_norm_sq(chol_i, delta) if np.any(delta) else 0.0
    # u[i, j] is structure j's mean in structure i; the product is commutative,
    # so the matrix is bitwise symmetric with a zero diagonal
    u = _typicality_of_dsq(d_sq, m)
    return 1.0 - u * u.T


def assign_points(model: SpcModel, labels: ClusterLabels, points) -> list[int]:
    """Cluster id of the nearest structure for each point.

    Nearest under the decision distance, which favors structures with
    large covariance reach in the far field; ties go to the lowest
    structure identifier.
    """
    cluster_ids, _, _ = assign_with_distances(model, labels, points)
    return cluster_ids.tolist()


@np.errstate(over="ignore")  # a reach beyond the largest double is inf
def assign_with_distances(model: SpcModel, labels: ClusterLabels, points):
    """Vectorized assignment returning (cluster_ids, structure_ids, distances).

    points is an (n, dim) array; a 1-D array is read as n scalars only
    when the model itself is one-dimensional. Up to d = 3 each distance
    is bit for bit decision_distance's. A point whose offset from a mean
    overflows is at distance 1.0 from that structure. Only the squared
    distances within a point's current winner's reach are transformed;
    ties go to the lowest structure id.
    """
    ids = model.ids()
    if not ids:
        raise ValueError("model holds no structures")
    if not labels.labels.keys() >= set(ids):
        raise KeyError(f"labels missing structure {min(set(ids) - labels.labels.keys())}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and model.dim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise DimensionMismatch(f"expected points of dim {model.dim}, got shape {pts.shape}")
    m = model.params.m
    n = pts.shape[0]
    block = max(_BLOCK_POINTS, _BLOCK_VALUES // model.dim)

    nearest = np.zeros(n, dtype=np.intp)
    dist = np.full(n, np.inf)
    for lo in range(0, n, block):
        best, best_row = dist[lo:lo + block], nearest[lo:lo + block]
        reach = np.full(best.shape, np.inf)
        # rows come in ascending-id order and only a strictly smaller
        # distance replaces the running minimum, so ties go to the lowest id.
        # The distance never falls as d_sq grows: a point beyond its winner's
        # d_sq, by a margin for any ulp of log and exp, keeps its winner
        for row, d_sq in enumerate(model.sq_distance_rows(pts[lo:lo + block])):
            near = np.flatnonzero(d_sq <= reach)
            if not near.size:
                continue
            u = _typicality_of_dsq(d_sq[near], m)
            row_dist = 1.0 - u * u
            win = row_dist < best[near]
            near = near[win]
            best[near], best_row[near] = row_dist[win], row
            reach[near] = d_sq[near] * (1.0 + 1e-9)
    label_arr = np.asarray([labels.labels[i] for i in ids])
    return label_arr[nearest], np.asarray(ids)[nearest], dist
