"""DBSCAN density-based clustering.

The exploratory engine ADA-HEALTH uses for *outlier detection* end-goals
(the paper notes rarely-prescribed exams "could affect other types of
analyses such as outlier detection"): points in low-density regions get
the noise label ``-1`` instead of being forced into a cluster.

Region queries run through the kd-tree for low/medium dimensionality and
fall back to brute force for very wide data (kd-trees degrade there).
Either way the neighbourhoods are stored one row block at a time, as
they come: a dense brute-force block as a packed bit mask (1 bit per
pair), any other block as its int32 neighbour columns (4 bytes per
pair). Clusters grow straight over those blocks, a whole frontier at a
time: the frontier's rows are ORed (bit blocks) or scattered (column
blocks) into one "reached" bit vector, which is unpacked once per step.

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

#: Bytes of stored neighbourhoods one frontier gather copies at most
#: (unless a single row is longer): ``ceil(n / 8)`` per bit-mask row, 4
#: per neighbour of a column row.
_FRONTIER_CHUNK = 1 << 18

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
        self.labels_, is_core = _label(n, list(blocks), self.min_samples)
        self.knn_distances_ = knn
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
        bit mask (1 bit per pair), which is then smaller than its int32
        columns (32 bits per neighbour).
        """
        eps2 = self.eps * self.eps
        for start, dist2 in squared_euclidean_blocks(data):
            # Before the partition below reorders the block.
            block = _radius_block(dist2 <= eps2)
            if knn is not None:
                # The query point is its own nearest neighbour.
                knn[start : start + len(dist2)] = kth_distance(
                    dist2, self.n_neighbors
                )
            yield block

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


def _radius_block(within: np.ndarray) -> _Block:
    """A boolean block's row counts with its bit mask or its columns,
    whichever is smaller."""
    counts = within.sum(axis=1)
    if 32 * int(counts.sum()) > within.size:
        return counts, np.packbits(within, axis=1)
    return counts, _columns(within)


def _columns(within: np.ndarray) -> np.ndarray:
    """Column indexes of a boolean block's true entries, row by row."""
    # Flat offsets stay below max(2_000_000, n), so int32 holds them.
    cols = np.flatnonzero(within).astype(np.int32)
    cols %= within.shape[1]
    return cols


def _label(
    n: int, blocks: List[_Block], min_samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster labels and the core mask of the neighbour relation held
    in ``blocks`` (consecutive row blocks of ``n`` points).

    Clusters are labelled in order of their lowest core index. Each one
    grows from its seed one frontier at a time: the frontier's
    still-unlabelled neighbours join the cluster, and the core points
    among them form the next frontier. A point, once labelled, keeps
    its label, so a border point stays with the first (lowest-numbered)
    cluster that reaches it.
    """
    relation = _Relation(n, blocks)
    is_core = relation.counts >= min_samples
    labels = np.full(n, NOISE, dtype=int)
    unlabelled = np.ones(n, dtype=bool)
    cluster = 0
    for seed in np.flatnonzero(is_core).tolist():
        if not unlabelled[seed]:
            continue
        unlabelled[seed] = False
        labels[seed] = cluster
        frontier = np.array([seed])
        while frontier.size:
            reached = relation.reached(frontier)
            reached &= unlabelled
            fresh = np.flatnonzero(reached)
            unlabelled[fresh] = False
            labels[fresh] = cluster
            frontier = fresh[is_core[fresh]]
        cluster += 1
    return labels, is_core


class _Relation:
    """The stored row blocks of a directed neighbour relation, with the
    per-row offsets a column block needs to find a row's neighbours."""

    def __init__(self, n: int, blocks: List[_Block]) -> None:
        self.n = n
        self.parts = [part for __, part in blocks]
        self.offsets: List[Optional[np.ndarray]] = []
        bounds = [0]
        for counts, part in blocks:
            bounds.append(bounds[-1] + len(counts))
            if part.dtype == np.uint8:  # a bit-mask block
                self.offsets.append(None)
            else:
                offsets = np.zeros(len(counts) + 1, dtype=np.int64)
                np.cumsum(counts, out=offsets[1:])
                self.offsets.append(offsets)
        self.bounds = np.array(bounds)
        self.counts = np.concatenate([counts for counts, __ in blocks])

    def reached(self, frontier: np.ndarray) -> np.ndarray:
        """Boolean mask of the points some row of ``frontier`` (sorted
        ascending) reaches."""
        packed = np.zeros(-(-self.n // 8), dtype=np.uint8)
        hit: Optional[np.ndarray] = None
        cuts = np.searchsorted(frontier, self.bounds)
        for b in np.flatnonzero(cuts[1:] > cuts[:-1]).tolist():
            rows = frontier[cuts[b] : cuts[b + 1]] - self.bounds[b]
            part = self.parts[b]
            offsets = self.offsets[b]
            if offsets is None:
                step = max(1, _FRONTIER_CHUNK // part.shape[1])
                for lo in range(0, len(rows), step):
                    picked = part[rows[lo : lo + step]]
                    packed |= np.bitwise_or.reduce(picked, axis=0)
            else:
                if hit is None:
                    hit = np.zeros(self.n, dtype=bool)
                _scatter(rows, offsets, part, hit)
        reached = np.unpackbits(packed, count=self.n).view(bool)
        if hit is not None:
            reached |= hit
        return reached


def _scatter(
    rows: np.ndarray, offsets: np.ndarray, columns: np.ndarray, hit: np.ndarray
) -> None:
    """Set ``hit`` at the neighbour columns of a column block's ``rows``,
    gathered in chunks of about :data:`_FRONTIER_CHUNK` bytes."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    ends = np.cumsum(lengths)
    lo = 0
    while lo < len(rows):
        done = ends[lo] - lengths[lo]
        hi = max(
            lo + 1,
            int(np.searchsorted(ends, done + _FRONTIER_CHUNK // 4, "right")),
        )
        counts = lengths[lo:hi]
        # Entry k of the chunk comes from columns[k + shift of its row].
        shift = starts[lo:hi] - (ends[lo:hi] - counts - done)
        where = np.arange(ends[hi - 1] - done) + np.repeat(shift, counts)
        hit[columns[where]] = True
        lo = hi
