"""The outlier goal's two distance passes before they were fused, kept
as a reference.

Before one blocked pass fed both consumers, the outlier goal computed
every pairwise distance twice, each block with its own
:func:`repro.mining.squared_euclidean` call:

* :class:`ReferenceDBSCAN` runs DBSCAN's brute-force region queries in
  blocks of ``2_000_000 // n`` rows, one fresh distance matrix per
  block;
* :func:`reference_knn_outlier_scores` is ``knn_outlier_scores``'s
  brute-force branch: blocks of ``4_000_000 // n`` rows and a copying
  ``np.partition``.

Blocks of different heights are not bitwise equal (BLAS blocks the
product differently), so the scores are compared to the last ulps and
the labels exactly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.mining.dbscan import DBSCAN, _Block, _columns
from repro.mining.distance import as_matrix, squared_euclidean


class ReferenceDBSCAN(DBSCAN):
    """DBSCAN whose brute-force region query allocates every block."""

    def _brute_blocks(self, data: np.ndarray, knn) -> Iterator[_Block]:
        assert knn is None, "the reference computes no kNN distances"
        n = data.shape[0]
        eps2 = self.eps * self.eps
        block = max(1, 2_000_000 // max(n, 1))
        for start in range(0, n, block):
            chunk = data[start : start + block]
            within = squared_euclidean(chunk, data) <= eps2
            counts = within.sum(axis=1)
            if 32 * int(counts.sum()) > within.size:
                yield counts, np.packbits(within, axis=1)
            else:
                yield counts, _columns(within)


def reference_knn_outlier_scores(data, n_neighbors: int = 5) -> np.ndarray:
    """k-NN distance scores from 4M/n-row blocks (wide data only)."""
    data = as_matrix(data)
    n = data.shape[0]
    k = n_neighbors + 1  # the query returns the point itself first
    scores = np.empty(n)
    block = max(1, 4_000_000 // max(n, 1))
    for start in range(0, n, block):
        chunk = data[start : start + block]
        dist2 = squared_euclidean(chunk, data)
        part = np.partition(dist2, k - 1, axis=1)[:, k - 1]
        scores[start : start + len(chunk)] = np.sqrt(part)
    return scores


def assert_same_outlier_pass(data, eps: float, n_neighbors: int = 5):
    """Fit the fused pass and the reference on ``data``; assert equal
    labels and core points, fused kNN distances bitwise equal to
    ``knn_outlier_scores`` and within 2 ulp of the reference scores.
    Returns the fused model and the reference scores."""
    from repro.mining import knn_outlier_scores

    model = DBSCAN(eps, min_samples=5, n_neighbors=n_neighbors).fit(data)
    reference = ReferenceDBSCAN(eps, min_samples=5).fit(data)
    np.testing.assert_array_equal(model.labels_, reference.labels_)
    np.testing.assert_array_equal(
        model.core_sample_indices_, reference.core_sample_indices_
    )
    scores = knn_outlier_scores(data, n_neighbors=n_neighbors)
    assert scores.tobytes() == model.knn_distances_.tobytes()
    expected = reference_knn_outlier_scores(data, n_neighbors)
    np.testing.assert_array_max_ulp(scores, expected, maxulp=2)
    return model, expected
