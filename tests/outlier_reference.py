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

The reference also keeps DBSCAN's old cluster expansion: the row blocks
are first assembled into one CSR structure (:func:`reference_csr`), and
clusters grow over it by gathering each frontier's neighbour lists
(:func:`reference_expand`). ``DBSCAN`` now labels straight from the
blocks, without the CSR; :func:`reference_labels` runs the old
expansion on the same blocks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.mining.dbscan import NOISE, DBSCAN, _Block, _columns
from repro.mining.distance import as_matrix, squared_euclidean
from repro.mining.kdtree import KDTree

#: Neighbour entries one frontier gather touches at most (unless a
#: single row is longer), bounding its int64 temporaries to a few MB.
_GATHER = 1 << 18


class ReferenceDBSCAN(DBSCAN):
    """DBSCAN whose brute-force region query allocates every block and
    whose clusters grow over a CSR of the neighbourhoods."""

    def fit(self, data) -> "ReferenceDBSCAN":
        data = as_matrix(data)
        if data.shape[1] >= self.brute_force_dims:
            blocks = self._brute_blocks(data, None)
        else:
            blocks = self._tree_blocks(data, KDTree(data))
        self.labels_, is_core = reference_labels(
            len(data), blocks, self.min_samples
        )
        self.core_sample_indices_ = np.nonzero(is_core)[0]
        self.knn_distances_ = None
        return self

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


def reference_labels(
    n: int, blocks: Iterable[_Block], min_samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Labels and core mask of the relation in ``blocks``, via the CSR."""
    indptr, indices = reference_csr(n, blocks)
    is_core = np.diff(indptr) >= min_samples
    return reference_expand(indptr, indices, is_core), is_core


def reference_csr(
    n: int, blocks: Iterable[_Block]
) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble row blocks into CSR ``(indptr, indices)``.

    Each block is released as soon as it is copied into ``indices``, not
    all of them after the last copy.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    parts: List[np.ndarray] = []
    row = 0
    for counts, part in blocks:
        indptr[row + 1 : row + 1 + len(counts)] = counts
        row += len(counts)
        parts.append(part)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    parts.reverse()
    at = 0
    while parts:
        part = parts.pop()
        if part.dtype == np.uint8:  # a bit-mask block
            part = _columns(np.unpackbits(part, axis=1, count=n).view(bool))
        indices[at : at + part.size] = part
        at += part.size
    return indptr, indices


def reference_expand(
    indptr: np.ndarray, indices: np.ndarray, is_core: np.ndarray
) -> np.ndarray:
    """Label clusters in order of their lowest core index.

    Each cluster grows from its seed one frontier at a time: the
    frontier's still-unlabelled neighbours join the cluster, and the
    core points among them form the next frontier. A point, once
    labelled, keeps its label, so a border point stays with the first
    (lowest-numbered) cluster that reaches it.
    """
    labels = np.full(len(is_core), NOISE, dtype=int)
    cluster = 0
    for seed in np.flatnonzero(is_core).tolist():
        if labels[seed] != NOISE:
            continue
        labels[seed] = cluster
        frontier = np.array([seed])
        while frontier.size:
            frontier = _advance(
                frontier, indptr, indices, labels, is_core, cluster
            )
        cluster += 1
    return labels


def _advance(
    frontier: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: np.ndarray,
    is_core: np.ndarray,
    cluster: int,
) -> np.ndarray:
    """Give ``frontier``'s unlabelled neighbours ``cluster``; return the
    core points among them.

    The frontier's neighbour rows are gathered in chunks of about
    :data:`_GATHER` entries.
    """
    starts = indptr[frontier]
    lengths = indptr[frontier + 1] - starts
    ends = np.cumsum(lengths)
    reached: List[np.ndarray] = []
    lo = 0
    while lo < len(frontier):
        done = ends[lo] - lengths[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, done + _GATHER, "right")))
        counts = lengths[lo:hi]
        # Entry k of the chunk comes from indices[k + shift of its row].
        shift = starts[lo:hi] - (ends[lo:hi] - counts - done)
        where = np.arange(ends[hi - 1] - done) + np.repeat(shift, counts)
        neighbours = indices[where]
        fresh = np.unique(neighbours[labels[neighbours] == NOISE])
        labels[fresh] = cluster
        reached.append(fresh[is_core[fresh]])
        lo = hi
    return np.concatenate(reached)


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
