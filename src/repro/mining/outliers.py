"""Distance-based outlier scoring (k-NN distance).

Complements DBSCAN's binary noise flag with a *ranked* outlier view:
each patient gets a score — the distance to their k-th nearest
neighbour — so the navigation layer can present "the 20 most atypical
examination histories" rather than an unordered noise set.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import MiningError
from repro.mining.distance import as_matrix, squared_euclidean
from repro.mining.kdtree import KDTree


def knn_outlier_scores(
    data,
    n_neighbors: int = 5,
    brute_force_dims: int = 25,
) -> np.ndarray:
    """Distance to each point's ``n_neighbors``-th nearest neighbour.

    Higher = more isolated. The point itself is excluded from its own
    neighbourhood.
    """
    data = as_matrix(data)
    n = data.shape[0]
    if not 1 <= n_neighbors < n:
        raise MiningError("need 1 <= n_neighbors < n_points")
    k = n_neighbors + 1  # the query returns the point itself first
    scores = np.empty(n)
    if data.shape[1] < brute_force_dims:
        tree = KDTree(data)
        for i in range(n):
            distances, __ = tree.query(data[i], k=k)
            scores[i] = float(np.sort(distances)[-1])
    else:
        block = max(1, 4_000_000 // max(n, 1))
        for start in range(0, n, block):
            chunk = data[start : start + block]
            dist2 = squared_euclidean(chunk, data)
            part = np.partition(dist2, k - 1, axis=1)[:, k - 1]
            scores[start : start + len(chunk)] = np.sqrt(part)
    return scores


def top_outliers(
    data,
    n_outliers: int = 10,
    n_neighbors: int = 5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(indexes, scores)`` of the most isolated points,
    ordered most-atypical first."""
    if n_outliers < 1:
        raise MiningError("n_outliers must be >= 1")
    scores = knn_outlier_scores(data, n_neighbors=n_neighbors)
    n_outliers = min(n_outliers, len(scores))
    order = np.argsort(-scores, kind="stable")[:n_outliers]
    return order, scores[order]
