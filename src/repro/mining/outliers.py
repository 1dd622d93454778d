"""Distance-based outlier scoring (k-NN distance).

Complements DBSCAN's binary noise flag with a *ranked* outlier view:
each patient gets a score — the distance to their k-th nearest
neighbour — so the navigation layer can present "the 20 most atypical
examination histories" rather than an unordered noise set.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import MiningError
from repro.mining.distance import (
    as_matrix,
    kth_distance,
    squared_euclidean_blocks,
)
from repro.mining.kdtree import KDTree


def check_n_neighbors(n_neighbors: int, n: int) -> None:
    """Raise unless every point has ``n_neighbors`` other points."""
    if not 1 <= n_neighbors < n:
        raise MiningError("need 1 <= n_neighbors < n_points")


def tree_knn_distances(
    tree: KDTree, data: np.ndarray, n_neighbors: int
) -> np.ndarray:
    """k-NN distances by one kd-tree query per point of ``data``."""
    k = n_neighbors + 1  # the query returns the point itself first
    scores = np.empty(data.shape[0])
    for i, row in enumerate(data):
        distances, __ = tree.query(row, k=k)
        scores[i] = float(np.sort(distances)[-1])
    return scores


def knn_outlier_scores(
    data,
    n_neighbors: int = 5,
    brute_force_dims: int = 25,
) -> np.ndarray:
    """Distance to each point's ``n_neighbors``-th nearest neighbour.

    Higher = more isolated. The point itself is excluded from its own
    neighbourhood. Wide data is scored from the reused distance blocks
    of :func:`repro.mining.distance.squared_euclidean_blocks`, the same
    pass ``DBSCAN(n_neighbors=...)`` runs.
    """
    data = as_matrix(data)
    n = data.shape[0]
    check_n_neighbors(n_neighbors, n)
    if data.shape[1] < brute_force_dims:
        return tree_knn_distances(KDTree(data), data, n_neighbors)
    scores = np.empty(n)
    for start, dist2 in squared_euclidean_blocks(data):
        # The query point is its own nearest neighbour.
        scores[start : start + len(dist2)] = kth_distance(dist2, n_neighbors)
    return scores


def rank_outliers(
    scores: np.ndarray, n_outliers: int = 10
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(indexes, scores)`` of the ``n_outliers`` highest
    scores, ordered most-atypical first (ties by index)."""
    if n_outliers < 1:
        raise MiningError("n_outliers must be >= 1")
    order = np.argsort(-scores, kind="stable")[:n_outliers]
    return order, scores[order]


def top_outliers(
    data,
    n_outliers: int = 10,
    n_neighbors: int = 5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(indexes, scores)`` of the most isolated points,
    ordered most-atypical first."""
    if n_outliers < 1:  # before the O(n^2) scoring pass
        raise MiningError("n_outliers must be >= 1")
    scores = knn_outlier_scores(data, n_neighbors=n_neighbors)
    return rank_outliers(scores, n_outliers)
