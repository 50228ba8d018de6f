"""On-demand crisp clustering of the structure store.

Structures are grouped with DBSCAN under the typicality-derived structure
distance; stream points (or grid points) are then labeled by their
nearest structure under the squared-typicality decision distance. Noise
structures keep unique singleton cluster ids so that every structure, and
therefore every point, always has a label.

DBSCAN reads the engine's own distance matrix (SpcModel.distances()),
assignment the engine's per-structure distance kernels
(SpcModel.sq_distance_rows()); no spread is copied or factored again.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .engine import SpcModel
from .errors import DimensionMismatch
from .typicality import _typicality_of_dsq
from . import linalg


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
    neighbors = [np.flatnonzero(d[i] <= epsilon) for i in range(n)]
    is_core = [len(nb) >= min_pts for nb in neighbors]

    labels = [-1] * n
    visited = [False] * n
    cluster = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        if not is_core[i]:
            continue  # provisional noise; a later cluster may claim it as border
        labels[i] = cluster
        seeds = deque(neighbors[i])
        while seeds:
            j = seeds.popleft()
            if not visited[j]:
                visited[j] = True
                if is_core[j]:
                    seeds.extend(neighbors[j])
            if labels[j] == -1:
                labels[j] = cluster
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
    params = model.params
    labels = labels_from_distances(model.distances(), params.epsilon, params.min_pts)
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
            if i == j:
                continue
            delta = mu_j - mu_i
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


def assign_with_distances(model: SpcModel, labels: ClusterLabels, points):
    """Vectorized assignment returning (cluster_ids, structure_ids, distances).

    points is an (n, dim) array; a 1-D array is read as n scalars only
    when the model itself is one-dimensional.
    """
    ids = model.ids()
    if not ids:
        raise ValueError("model holds no structures")
    for ident in ids:
        if ident not in labels.labels:
            raise KeyError(f"labels missing structure {ident}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and model.dim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != model.dim:
        raise DimensionMismatch(f"expected points of dim {model.dim}, got shape {pts.shape}")
    m = model.params.m

    dist = np.empty((len(ids), pts.shape[0]))
    for row, d_sq in enumerate(model.sq_distance_rows(pts)):
        # a zero delta gives exactly 0
        u = _typicality_of_dsq(d_sq, m)
        dist[row] = 1.0 - u * u
    # argmin returns the first minimum, and rows are in ascending-id order,
    # so ties resolve to the lowest identifier.
    nearest = np.argmin(dist, axis=0)
    label_arr = np.asarray([labels.labels[i] for i in ids])
    cols = np.arange(pts.shape[0])
    return label_arr[nearest], np.asarray(ids)[nearest], dist[nearest, cols]
