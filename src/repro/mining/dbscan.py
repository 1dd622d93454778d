"""DBSCAN density-based clustering.

The exploratory engine ADA-HEALTH uses for *outlier detection* end-goals
(the paper notes rarely-prescribed exams "could affect other types of
analyses such as outlier detection"): points in low-density regions get
the noise label ``-1`` instead of being forced into a cluster.

Region queries run through the kd-tree for low/medium dimensionality and
fall back to brute force for very wide data (kd-trees degrade there).
Either way the neighbourhoods land in one CSR structure (int64
``indptr``, int32 ``indices``: ~4 bytes per neighbour pair), built one
row block at a time; a dense brute-force block waits as a bit mask until
the CSR is assembled. Clusters grow over the CSR a whole frontier at a
time with array operations rather than point by point.

With ``n_neighbors`` set, the same pass also records each point's
distance to its ``n_neighbors``-th nearest other point (the k-NN
outlier score of :mod:`repro.mining.outliers`): the brute-force branch
reads it off the distance block its region query already computed.

Labelling contract (identical to a point-by-point breadth-first
expansion in index order):

* cluster ids follow each cluster's lowest core point index;
* a border point reachable from several clusters takes the lowest id;
* "reachable" uses the neighbour relation exactly as computed, one
  direction per query point, without symmetrising it.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import MiningError, NotFittedError
from repro.mining.distance import (
    as_matrix,
    block_rows,
    kth_distance,
    squared_euclidean_blocks,
)
from repro.mining.kdtree import KDTree
from repro.mining.outliers import check_n_neighbors, tree_knn_distances

#: Label assigned to noise points.
NOISE = -1

#: Neighbour entries one frontier gather touches at most (unless a
#: single row is longer), bounding its int64 temporaries to a few MB.
_GATHER = 1 << 18

#: One row block of neighbourhoods: per-row counts, then either the
#: concatenated int32 columns or a uint8 bit mask from ``np.packbits``.
_Block = Tuple[np.ndarray, np.ndarray]


class DBSCAN:
    """Density-based spatial clustering of applications with noise.

    Parameters
    ----------
    eps:
        Neighbourhood radius.
    min_samples:
        Minimum neighbourhood size (the point itself included) for a
        point to be a core point.
    brute_force_dims:
        Use brute-force region queries when the data has at least this
        many columns (kd-trees lose their advantage in high dimension).
    n_neighbors:
        When set, ``fit`` also fills ``knn_distances_``: each point's
        distance to its ``n_neighbors``-th nearest other point, equal
        to :func:`repro.mining.knn_outlier_scores` bit for bit.
    """

    def __init__(
        self,
        eps: float,
        min_samples: int = 5,
        brute_force_dims: int = 25,
        n_neighbors: Optional[int] = None,
    ) -> None:
        if eps <= 0:
            raise MiningError("eps must be positive")
        if min_samples < 1:
            raise MiningError("min_samples must be >= 1")
        self.eps = eps
        self.min_samples = min_samples
        self.brute_force_dims = brute_force_dims
        self.n_neighbors = n_neighbors
        self.labels_: Optional[np.ndarray] = None
        self.core_sample_indices_: Optional[np.ndarray] = None
        self.knn_distances_: Optional[np.ndarray] = None

    def fit(self, data) -> "DBSCAN":
        """Cluster ``data``; returns ``self``."""
        data = as_matrix(data)
        n = data.shape[0]
        knn = None
        if self.n_neighbors is not None:
            check_n_neighbors(self.n_neighbors, n)
        if data.shape[1] >= self.brute_force_dims:
            if self.n_neighbors is not None:
                knn = np.empty(n)
            blocks = self._brute_blocks(data, knn)
        else:
            tree = KDTree(data)
            if self.n_neighbors is not None:
                knn = tree_knn_distances(tree, data, self.n_neighbors)
            blocks = self._tree_blocks(data, tree)
        indptr, indices = _csr(n, blocks)
        self.knn_distances_ = knn
        is_core = np.diff(indptr) >= self.min_samples
        self.labels_ = _expand(indptr, indices, is_core)
        self.core_sample_indices_ = np.nonzero(is_core)[0]
        return self

    def fit_predict(self, data) -> np.ndarray:
        """Fit and return the labels (noise = -1)."""
        return self.fit(data).labels_  # type: ignore[return-value]

    def _brute_blocks(
        self, data: np.ndarray, knn: Optional[np.ndarray]
    ) -> Iterator[_Block]:
        """Radius neighbourhoods via a blocked distance computation,
        filling ``knn`` (when given) from the same blocks.

        A block with more than one neighbour per 32 pairs is held as a
        bit mask (1 bit per pair, unpacked by :func:`_csr`), which is
        then smaller than its int32 columns (32 bits per neighbour).
        """
        eps2 = self.eps * self.eps
        for start, dist2 in squared_euclidean_blocks(data):
            within = dist2 <= eps2
            if knn is not None:
                # The query point is its own nearest neighbour.
                knn[start : start + len(dist2)] = kth_distance(
                    dist2, self.n_neighbors
                )
            counts = within.sum(axis=1)
            if 32 * int(counts.sum()) > within.size:
                yield counts, np.packbits(within, axis=1)
            else:
                yield counts, _columns(within)

    def _tree_blocks(
        self, data: np.ndarray, tree: KDTree
    ) -> Iterator[_Block]:
        """Radius neighbourhoods via kd-tree queries, one row block at a
        time."""
        n = data.shape[0]
        block = block_rows(n)
        for start in range(0, n, block):
            hits = [
                tree.query_radius(row, self.eps)
                for row in data[start : start + block]
            ]
            yield (
                np.array([len(found) for found in hits]),
                np.concatenate(hits).astype(np.int32),
            )

    def n_clusters(self) -> int:
        """Number of clusters found (noise excluded)."""
        if self.labels_ is None:
            raise NotFittedError("DBSCAN is not fitted")
        unique = set(self.labels_.tolist())
        unique.discard(NOISE)
        return len(unique)

    def noise_ratio(self) -> float:
        """Fraction of points labelled noise."""
        if self.labels_ is None:
            raise NotFittedError("DBSCAN is not fitted")
        return float((self.labels_ == NOISE).mean())


def _columns(within: np.ndarray) -> np.ndarray:
    """Column indexes of a boolean block's true entries, row by row."""
    # Flat offsets stay below max(2_000_000, n), so int32 holds them.
    cols = np.flatnonzero(within).astype(np.int32)
    cols %= within.shape[1]
    return cols


def _csr(n: int, blocks: Iterator[_Block]) -> Tuple[np.ndarray, np.ndarray]:
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


def _expand(
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
