"""K-means clustering: Lloyd's algorithm and the kd-tree *filtering* engine.

The paper's preliminary ADA-HEALTH implementation clusters patients with
"a center-based algorithm such as K-Means" and cites Kanungo et al. (IEEE
TPAMI 2002) for the implementation. This module provides both:

* ``algorithm="lloyd"`` — the textbook alternating assignment/update
  iteration, fully vectorised; and
* ``algorithm="filtering"`` — Kanungo's kd-tree filtering algorithm,
  which assigns whole tree cells to a centre when every competing centre
  is provably farther from the cell, avoiding per-point distance
  computations on the dense head of the data.

Both engines produce identical assignments given identical centres; the
ablation benchmark ``benchmarks/test_kmeans_filtering_ablation.py``
verifies equivalence and compares runtimes.

Initialisation is ``k-means++`` (default) or uniform random sampling;
``n_init`` restarts keep the best inertia. All randomness flows through
an explicit seed.

Each :meth:`KMeans.fit` prepares its data once (:class:`_Prepared`):
the squared row norms ``einsum("ij,ij->i")``, the row-major
``np.nonzero`` layout ``(rows, cols, values)`` and an ``arange`` for
the inertia gather. Every Lloyd step, every k-means++ draw and every
empty-cluster re-seed reuses them, so a distance pass no longer
recomputes the norms of the whole matrix, and the cluster sums are one
``np.bincount(labels[rows] * d + cols, weights=values)`` over the
nonzeros instead of ``d`` strided per-column ``bincount`` passes. The
result is bit-identical to computing everything per call
(``tests/kmeans_reference.py`` keeps that version): the norms are the
same einsum over the same rows, and ``bincount`` adds each bin's
weights in increasing row order starting from +0.0, so its running sum
is never -0.0 and skipping the zero entries cannot change a bit. The
layout costs O(nnz) memory: 24 bytes per nonzero, ~1.7 MB for the
paper cohort's 6,380 x 159 VSM (71,135 nonzeros).

Restarts draw their initial centres in sequence from one
``default_rng(seed)`` and a Lloyd run draws nothing, so the first ``m``
restarts of a fit with ``n_init=n`` are exactly a fit with
``n_init=m``. :meth:`KMeans.checkpoint` keeps where a fit stopped (its
best restart and the generator state); a later fit on the same data
and settings with a larger ``n_init`` takes it as ``resume`` and runs
only the remaining restarts, bit for bit the result of a full fit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import MiningError, NotFittedError
from repro.mining.distance import as_matrix, squared_euclidean
from repro.mining.kdtree import KDNode, KDTree


def kmeans_plus_plus(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007).

    The first centre is uniform; each subsequent centre is drawn with
    probability proportional to the squared distance from the nearest
    centre chosen so far.
    """
    return _plus_plus(_Prepared(data), n_clusters, rng)


def _plus_plus(
    prepared: "_Prepared", n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """:func:`kmeans_plus_plus` over already prepared data."""
    data = prepared.data
    n = data.shape[0]
    centers = np.empty((n_clusters, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest = prepared.distances(centers[:1]).ravel()
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0.0:
            # All remaining mass at distance zero: duplicate points; pick
            # uniformly to stay well-defined.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest / total))
        centers[i] = data[choice]
        distance = prepared.distances(centers[i : i + 1]).ravel()
        np.minimum(closest, distance, out=closest)
    return centers


def _random_init(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n_clusters`` distinct rows as initial centres."""
    choice = rng.choice(data.shape[0], size=n_clusters, replace=False)
    return data[choice].copy()


def _data_key(data) -> Tuple:
    """Shape, dtype and a digest of the values of ``data`` in Fortran
    order, so equal values in any memory layout share one key."""
    array = np.asarray(data)
    digest = hashlib.sha256(array.tobytes(order="F")).hexdigest()
    return (array.shape, array.dtype.str, digest)


@dataclass(frozen=True, eq=False)
class KMeansCheckpoint:
    """Where a :meth:`KMeans.fit` stopped, for a later fit to continue.

    ``settings`` are the fit's ``(n_clusters, init, algorithm,
    max_iter, tol, seed)``; ``data_key`` is the shape, dtype and a
    digest of the values it ran on; ``rng_state`` is the
    generator state after its ``n_restarts`` restarts, and the rest is
    its winning restart.
    """

    settings: Tuple
    data_key: Tuple
    n_restarts: int
    rng_state: Dict[str, Any]
    inertia: float
    centers: np.ndarray
    labels: np.ndarray
    n_iter: int

    def continues(self, model: "KMeans", data) -> bool:
        """True when ``model.fit(data)`` may start from this checkpoint:
        same settings, no more restarts than ``model.n_init``, and data
        equal in shape, dtype and values, in any memory layout."""
        return (
            self.settings == model._settings()
            and self.n_restarts <= model.n_init
            and self.data_key == _data_key(data)
        )


class KMeans:
    """Center-based clustering with SSE (inertia) objective.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``K``.
    init:
        ``"k-means++"`` or ``"random"``.
    algorithm:
        ``"lloyd"`` or ``"filtering"`` (Kanungo kd-tree engine).
    n_init:
        Number of random restarts; the run with the lowest SSE wins.
    max_iter:
        Iteration cap per restart.
    tol:
        Convergence threshold on the squared movement of centres.
    seed:
        Seed for all randomness.

    Attributes (after ``fit``)
    --------------------------
    cluster_centers_ : ``(K, d)`` centroids.
    labels_ : per-point cluster index.
    inertia_ : SSE — "the total sum of squared errors over all the
        objects in the collection, where for each object the error is
        computed as the squared distance from the closest centroid".
    n_iter_ : iterations of the winning restart.
    """

    def __init__(
        self,
        n_clusters: int,
        init: str = "k-means++",
        algorithm: str = "lloyd",
        n_init: int = 5,
        max_iter: int = 100,
        tol: float = 1e-6,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise MiningError("n_clusters must be >= 1")
        if init not in ("k-means++", "random"):
            raise MiningError(f"unknown init: {init!r}")
        if algorithm not in ("lloyd", "filtering"):
            raise MiningError(f"unknown algorithm: {algorithm!r}")
        if n_init < 1 or max_iter < 1:
            raise MiningError("n_init and max_iter must be >= 1")
        self.n_clusters = n_clusters
        self.init = init
        self.algorithm = algorithm
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        self.n_iter_: Optional[int] = None
        # (settings, restarts run, generator state) of the last fit.
        self._stopped: Optional[Tuple[Tuple, int, Dict[str, Any]]] = None

    def _settings(self) -> Tuple:
        return (
            self.n_clusters,
            self.init,
            self.algorithm,
            self.max_iter,
            self.tol,
            self.seed,
        )

    # ------------------------------------------------------------------
    def fit(
        self, data, resume: Optional[KMeansCheckpoint] = None
    ) -> "KMeans":
        """Cluster ``data``; returns ``self``.

        ``resume`` is a :meth:`checkpoint` of an earlier fit. When
        :meth:`KMeansCheckpoint.continues` holds, this fit starts from
        the checkpoint's best restart and generator state and runs only
        restarts ``n_restarts + 1 .. n_init``; otherwise it runs in
        full. The result is the same either way, bit for bit.

        The fit runs on a Fortran-ordered copy of ``data`` unless it is
        F-contiguous already, so it depends only on the values: C-,
        F-ordered and strided arrays of equal values give the same fit,
        bit for bit. The engine's VSM matrices are F-contiguous, so
        they are never copied.
        """
        matrix = np.asfortranarray(as_matrix(data))
        if matrix.shape[0] < self.n_clusters:
            raise MiningError(
                f"need at least n_clusters={self.n_clusters} points,"
                f" got {matrix.shape[0]}"
            )
        rng = np.random.default_rng(self.seed)
        best: Optional[Tuple[float, np.ndarray, np.ndarray, int]] = None
        done = 0
        if resume is not None and resume.continues(self, data):
            rng.bit_generator.state = resume.rng_state
            best = (
                resume.inertia,
                resume.centers.copy(),
                resume.labels.copy(),
                resume.n_iter,
            )
            done = resume.n_restarts
        data = matrix
        tree = KDTree(data) if self.algorithm == "filtering" else None
        prepared = _Prepared(data)

        for __ in range(done, self.n_init):
            if self.init == "k-means++":
                centers = _plus_plus(prepared, self.n_clusters, rng)
            else:
                centers = _random_init(data, self.n_clusters, rng)
            centers, labels, inertia, n_iter = self._run(
                prepared, centers, tree
            )
            if best is None or inertia < best[0]:
                best = (inertia, centers, labels, n_iter)

        if best is None:
            raise RuntimeError("no k-means initialisation succeeded")
        self.inertia_, self.cluster_centers_, self.labels_, self.n_iter_ = (
            best[0],
            best[1],
            best[2],
            best[3],
        )
        self._stopped = (
            self._settings(),
            self.n_init,
            rng.bit_generator.state,
        )
        return self

    def checkpoint(self, data) -> KMeansCheckpoint:
        """Where the last fit stopped, for :meth:`fit`'s ``resume``.

        ``data`` must hold the values that fit ran on, unchanged since:
        the checkpoint records their shape, dtype and a digest.
        """
        if self._stopped is None or self.labels_ is None:
            raise NotFittedError("KMeans.checkpoint called before fit")
        settings, n_restarts, rng_state = self._stopped
        return KMeansCheckpoint(
            settings=settings,
            data_key=_data_key(data),
            n_restarts=n_restarts,
            rng_state=rng_state,
            inertia=float(self.inertia_),
            centers=self.cluster_centers_.copy(),
            labels=self.labels_.copy(),
            n_iter=int(self.n_iter_),
        )

    def fit_predict(self, data) -> np.ndarray:
        """Fit and return the labels."""
        return self.fit(data).labels_  # type: ignore[return-value]

    def predict(self, data) -> np.ndarray:
        """Assign new points to the nearest fitted centre."""
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans.predict called before fit")
        data = as_matrix(data)
        return np.argmin(
            squared_euclidean(data, self.cluster_centers_), axis=1
        )

    def transform(self, data) -> np.ndarray:
        """Distances from each point to each fitted centre."""
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans.transform called before fit")
        data = as_matrix(data)
        return np.sqrt(squared_euclidean(data, self.cluster_centers_))

    # ------------------------------------------------------------------
    def _run(
        self,
        prepared: "_Prepared",
        centers: np.ndarray,
        tree: Optional[KDTree],
    ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        """One restart: iterate until convergence or ``max_iter``."""
        data = prepared.data
        n_iter = 0
        converged = False
        for n_iter in range(1, self.max_iter + 1):
            if tree is not None:
                labels, sums, counts, inertia = _filtering_step(
                    tree, centers
                )
            else:
                labels, sums, counts, inertia = prepared.lloyd_step(centers)
            new_centers = centers.copy()
            occupied = counts > 0
            new_centers[occupied] = (
                sums[occupied] / counts[occupied, None]
            )
            # Re-seed empty clusters on the farthest points: keeps K
            # clusters alive, matching common practice.
            for j in np.nonzero(~occupied)[0]:
                distances = prepared.distances(centers[j : j + 1])
                new_centers[j] = data[int(np.argmax(distances))]
            shift = float(((new_centers - centers) ** 2).sum())
            if shift <= self.tol:
                # The update barely moved: labels/inertia from this step
                # are consistent with `centers` as they stand, so no
                # final assignment pass is needed.
                converged = True
                break
            centers = new_centers
        if not converged:
            if tree is not None:
                labels, __, __, inertia = _filtering_step(tree, centers)
            else:
                labels, __, __, inertia = prepared.lloyd_step(centers)
        return centers, labels, float(inertia), n_iter


class _Prepared:
    """One data matrix with what every Lloyd step over it reuses.

    Built once per :meth:`KMeans.fit`: the squared row norms (the
    ``|x|^2`` term of every distance pass), the row-major nonzero layout
    that the cluster sums scatter from, and the row positions of the
    inertia gather. Every result is bit-identical to computing it from
    scratch with :func:`squared_euclidean` and per-column sums (see the
    module docstring).
    """

    __slots__ = ("data", "norms", "rows", "cols", "values", "positions")

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.norms = np.einsum("ij,ij->i", data, data)[:, None]
        self.rows, self.cols = np.nonzero(data)
        self.values = data[self.rows, self.cols]
        self.positions = np.arange(data.shape[0])

    def distances(self, centers: np.ndarray) -> np.ndarray:
        """``squared_euclidean(self.data, centers)``, bit for bit."""
        center_norms = np.einsum("ij,ij->i", centers, centers)[None, :]
        distances = self.norms + center_norms - 2.0 * (self.data @ centers.T)
        np.maximum(distances, 0.0, out=distances)
        return distances

    def lloyd_step(
        self, centers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """One assignment pass: labels, per-cluster sums/counts, SSE."""
        distances = self.distances(centers)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[self.positions, labels].sum())
        k, dims = centers.shape
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        # One weighted bincount keyed by (cluster, column) over the
        # nonzero entries, in row-major order: each bin adds its values
        # in increasing row order, like a per-column bincount would.
        sums = np.bincount(
            labels[self.rows] * dims + self.cols,
            weights=self.values,
            minlength=k * dims,
        ).reshape(k, dims)
        return labels, sums, counts, inertia


def _filtering_step(
    tree: KDTree, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One assignment pass using Kanungo's filtering traversal.

    Whole cells whose candidate set prunes down to a single centre are
    assigned in O(1) using the cell aggregates (point count, vector sum,
    sum of squared norms). The traversal uses an explicit stack, so deep
    trees over large or degenerate datasets cannot hit Python's
    recursion limit.
    """
    k, dims = centers.shape
    labels = np.empty(tree.data.shape[0], dtype=int)
    sums = np.zeros((k, dims))
    counts = np.zeros(k)
    inertia = 0.0

    stack = [(tree.root, np.arange(k))]
    while stack:
        node, candidates = stack.pop()
        if len(candidates) > 1:
            candidates = _filter_candidates(node, centers, candidates)
        if len(candidates) == 1 and not node.is_leaf:
            winner = int(candidates[0])
            labels[node.indexes] = winner
            sums[winner] += node.vector_sum
            counts[winner] += node.count
            center = centers[winner]
            inertia += (
                node.sq_sum
                - 2.0 * float(center @ node.vector_sum)
                + node.count * float(center @ center)
            )
            continue
        if node.is_leaf:
            points = tree.data[node.indexes]
            distances = squared_euclidean(points, centers[candidates])
            nearest = np.argmin(distances, axis=1)
            chosen = candidates[nearest]
            labels[node.indexes] = chosen
            np.add.at(sums, chosen, points)
            counts[:] = counts + np.bincount(chosen, minlength=k)
            inertia += float(
                distances[np.arange(len(nearest)), nearest].sum()
            )
            continue
        stack.append((node.right, candidates))
        stack.append((node.left, candidates))

    return labels, sums, counts, float(inertia)


def filtering_stats(data, centers) -> dict:
    """Instrumentation for the filtering traversal.

    Returns how effectively one filtering pass prunes work for the given
    centres: the fraction of points assigned in bulk at internal nodes
    (without any per-point distance computation) and the number of
    point-centre distance evaluations performed, versus the ``n * k``
    a Lloyd pass always needs.
    """
    data = as_matrix(data)
    centers = np.asarray(centers, dtype=np.float64)
    tree = KDTree(data)
    k = centers.shape[0]
    stats = {
        "bulk_points": 0,
        "leaf_points": 0,
        "distance_evaluations": 0,
        "nodes_visited": 0,
    }

    stack = [(tree.root, np.arange(k))]
    while stack:
        node, candidates = stack.pop()
        stats["nodes_visited"] += 1
        if len(candidates) > 1:
            candidates = _filter_candidates(node, centers, candidates)
        if len(candidates) == 1 and not node.is_leaf:
            stats["bulk_points"] += node.count
            continue
        if node.is_leaf:
            stats["leaf_points"] += node.count
            stats["distance_evaluations"] += node.count * len(candidates)
            continue
        stack.append((node.right, candidates))
        stack.append((node.left, candidates))

    stats["lloyd_distance_evaluations"] = data.shape[0] * k
    stats["bulk_fraction"] = stats["bulk_points"] / data.shape[0]
    return stats


def _filter_candidates(
    node: KDNode, centers: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Prune candidate centres that cannot own any point of the cell.

    The closest candidate to the cell midpoint is kept; any other
    candidate ``z`` is pruned when the cell corner farthest in the
    direction ``z - z*`` is still closer to ``z*`` (Kanungo et al.,
    Lemma "is_farther").
    """
    subset = centers[candidates]
    midpoint = (node.lower + node.upper) / 2.0
    closest_pos = int(
        np.argmin(squared_euclidean(midpoint[None, :], subset).ravel())
    )
    star = subset[closest_pos]
    keep = np.zeros(len(candidates), dtype=bool)
    keep[closest_pos] = True
    for position, center in enumerate(subset):
        if position == closest_pos:
            continue
        direction = center - star
        corner = np.where(direction > 0.0, node.upper, node.lower)
        to_star = corner - star
        to_center = corner - center
        if float(to_center @ to_center) < float(to_star @ to_star):
            keep[position] = True
    return candidates[keep]


def kmeans(
    data,
    n_clusters: int,
    seed: int = 0,
    **kwargs,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Functional one-shot API: returns ``(labels, centers, sse)``."""
    model = KMeans(n_clusters=n_clusters, seed=seed, **kwargs).fit(data)
    return (
        model.labels_,  # type: ignore[return-value]
        model.cluster_centers_,
        model.inertia_,
    )
