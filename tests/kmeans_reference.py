"""The per-call Lloyd step and k-means++ draw, kept as a reference.

:class:`ReferenceKMeans` is the ``"lloyd"`` fit that ``KMeans`` ran
before its prepared-data rewrite: every distance pass (each Lloyd step,
each k-means++ draw, each empty-cluster re-seed) calls
:func:`repro.mining.squared_euclidean`, which recomputes the norms of
the whole data matrix, and the cluster sums are one strided weighted
``bincount`` per column. It shares the constructor and the public
attributes with the production class, so the equality tests can compare
labels, centres, ``inertia_`` and ``n_iter_`` bit for bit. Like
``KMeans.fit``, it runs on a Fortran-ordered copy of the data, so both
depend on the values only, not on the memory layout.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import MiningError
from repro.mining.distance import as_matrix, squared_euclidean
from repro.mining.kmeans import KMeans, _random_init


def reference_kmeans_plus_plus(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding with one ``squared_euclidean`` call per draw."""
    n = data.shape[0]
    centers = np.empty((n_clusters, data.shape[1]))
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest = squared_euclidean(data, centers[:1]).ravel()
    for i in range(1, n_clusters):
        total = closest.sum()
        if total <= 0.0:
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest / total))
        centers[i] = data[choice]
        distance = squared_euclidean(data, centers[i : i + 1]).ravel()
        np.minimum(closest, distance, out=closest)
    return centers


def reference_lloyd_step(
    data: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One assignment pass: labels, per-cluster sums/counts, SSE."""
    distances = squared_euclidean(data, centers)
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(len(labels)), labels].sum())
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.column_stack(
        [
            np.bincount(labels, weights=data[:, dim], minlength=k)
            for dim in range(data.shape[1])
        ]
    )
    return labels, sums, counts, inertia


class ReferenceKMeans(KMeans):
    """``KMeans(algorithm="lloyd")`` with the original per-call passes."""

    def fit(self, data) -> "ReferenceKMeans":
        if self.algorithm != "lloyd":
            raise MiningError("the reference covers the lloyd engine only")
        data = np.asfortranarray(as_matrix(data))
        if data.shape[0] < self.n_clusters:
            raise MiningError(
                f"need at least n_clusters={self.n_clusters} points,"
                f" got {data.shape[0]}"
            )
        rng = np.random.default_rng(self.seed)
        best: Optional[Tuple[float, np.ndarray, np.ndarray, int]] = None
        for __ in range(self.n_init):
            if self.init == "k-means++":
                centers = reference_kmeans_plus_plus(
                    data, self.n_clusters, rng
                )
            else:
                centers = _random_init(data, self.n_clusters, rng)
            centers, labels, inertia, n_iter = self._reference_run(
                data, centers
            )
            if best is None or inertia < best[0]:
                best = (inertia, centers, labels, n_iter)
        assert best is not None
        self.inertia_, self.cluster_centers_, self.labels_, self.n_iter_ = (
            best
        )
        return self

    def _reference_run(
        self, data: np.ndarray, centers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, float, int]:
        n_iter = 0
        converged = False
        for n_iter in range(1, self.max_iter + 1):
            labels, sums, counts, inertia = reference_lloyd_step(
                data, centers
            )
            new_centers = centers.copy()
            occupied = counts > 0
            new_centers[occupied] = sums[occupied] / counts[occupied, None]
            for j in np.nonzero(~occupied)[0]:
                distances = squared_euclidean(data, centers[j : j + 1])
                new_centers[j] = data[int(np.argmax(distances))]
            shift = float(((new_centers - centers) ** 2).sum())
            if shift <= self.tol:
                converged = True
                break
            centers = new_centers
        if not converged:
            labels, __, __, inertia = reference_lloyd_step(data, centers)
        return centers, labels, float(inertia), n_iter


def assert_same_fit(mine: KMeans, reference: KMeans) -> None:
    """Labels, centres, ``inertia_`` and ``n_iter_`` equal bit for bit."""
    assert np.array_equal(mine.labels_, reference.labels_)
    assert mine.labels_.dtype == reference.labels_.dtype
    assert mine.cluster_centers_.tobytes() == (
        reference.cluster_centers_.tobytes()
    )
    assert mine.cluster_centers_.shape == reference.cluster_centers_.shape
    assert np.float64(mine.inertia_).tobytes() == (
        np.float64(reference.inertia_).tobytes()
    )
    assert mine.n_iter_ == reference.n_iter_
