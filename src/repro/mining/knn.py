"""k-nearest-neighbour classifier.

The third pluggable robustness classifier for the optimiser. Uses the
kd-tree for narrow data and blocked brute force for wide VSMs (the same
dimensionality cutoff logic as DBSCAN).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import MiningError, NotFittedError
from repro.mining.distance import as_matrix, squared_euclidean_blocks
from repro.mining.kdtree import KDTree


class KNeighborsClassifier:
    """Majority vote among the ``k`` nearest training points.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours consulted.
    weights:
        ``"uniform"`` (plain majority) or ``"distance"`` (votes weighted
        by inverse distance; an exact match wins outright).
    brute_force_dims:
        Use blocked brute force above this dimensionality.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        weights: str = "uniform",
        brute_force_dims: int = 25,
    ) -> None:
        if n_neighbors < 1:
            raise MiningError("n_neighbors must be >= 1")
        if weights not in ("uniform", "distance"):
            raise MiningError(f"unknown weights: {weights!r}")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.brute_force_dims = brute_force_dims
        self._data: Optional[np.ndarray] = None
        self._encoded: Optional[np.ndarray] = None
        self.classes_: Optional[np.ndarray] = None
        self._tree: Optional[KDTree] = None

    def fit(self, data, labels) -> "KNeighborsClassifier":
        data = as_matrix(data)
        labels = np.asarray(labels)
        if labels.shape[0] != data.shape[0]:
            raise MiningError("labels must align with data")
        if data.shape[0] < self.n_neighbors:
            raise MiningError(
                f"need at least n_neighbors={self.n_neighbors} samples"
            )
        self.classes_, self._encoded = np.unique(
            labels, return_inverse=True
        )
        self._data = data
        if data.shape[1] < self.brute_force_dims:
            self._tree = KDTree(data)
        else:
            self._tree = None
        return self

    def predict(self, data) -> np.ndarray:
        """Predicted class labels."""
        if self._data is None:
            raise NotFittedError("KNeighborsClassifier is not fitted")
        data = as_matrix(data)
        if data.shape[1] != self._data.shape[1]:
            raise MiningError("feature count mismatch")
        k = self.n_neighbors
        n_classes = len(self.classes_)  # type: ignore[arg-type]
        votes = np.zeros((data.shape[0], n_classes))
        if self._tree is not None:
            for i, row in enumerate(data):
                distances, indexes = self._tree.query(row, k=k)
                votes[i] = self._vote(distances, indexes, n_classes)
        else:
            for start, dist2 in squared_euclidean_blocks(data, self._data):
                nearest = np.argpartition(dist2, k - 1, axis=1)[:, :k]
                for offset, (row_indexes, row_dist2) in enumerate(
                    zip(nearest, dist2)
                ):
                    votes[start + offset] = self._vote(
                        np.sqrt(row_dist2[row_indexes]),
                        row_indexes,
                        n_classes,
                    )
        picks = np.argmax(votes, axis=1)
        return self.classes_[picks]  # type: ignore[index]

    def _vote(
        self, distances: np.ndarray, indexes: np.ndarray, n_classes: int
    ) -> np.ndarray:
        if self._encoded is None:
            raise NotFittedError("KNeighborsClassifier is not fitted")
        votes = np.zeros(n_classes)
        neighbour_classes = self._encoded[indexes]
        if self.weights == "uniform":
            np.add.at(votes, neighbour_classes, 1.0)
        else:
            exact = distances <= 1e-12
            if exact.any():
                np.add.at(votes, neighbour_classes[exact], 1.0)
            else:
                np.add.at(votes, neighbour_classes, 1.0 / distances)
        return votes

    def score(self, data, labels) -> float:
        """Mean accuracy."""
        labels = np.asarray(labels)
        return float((self.predict(data) == labels).mean())
