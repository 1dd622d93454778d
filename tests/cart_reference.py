"""The per-feature sort-and-cumsum CART, kept as a reference.

:class:`ReferenceDecisionTree` is the split search, tree growth and
per-row ``predict_proba``/prune descent that ``DecisionTreeClassifier``
used before its coded-bin rewrite: every node copies its rows
(``data[mask]``), and every candidate feature costs one stable
``argsort`` plus one ``cumsum`` over one-hot labels. It shares the
public surface (and ``prune``'s bottom-up walk) with the production
class, so the equality tests can compare trees, importances,
probabilities and pruned trees node for node.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import MiningError, NotFittedError
from repro.mining.decision_tree import (
    DecisionTreeClassifier,
    TreeNode,
    _entropy_rows,
    entropy_impurity,
    gini_impurity,
)
from repro.mining.distance import as_matrix


class ReferenceDecisionTree(DecisionTreeClassifier):
    """Binary CART with the original per-feature split scan."""

    def fit(self, data, labels) -> "ReferenceDecisionTree":
        data = as_matrix(data)
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != data.shape[0]:
            raise MiningError("labels must be 1-D and aligned with data")
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = data.shape[1]
        self._impurity = (
            gini_impurity if self.criterion == "gini" else entropy_impurity
        )
        self._importance = np.zeros(self.n_features_)
        self._rng = np.random.default_rng(self.seed)
        self._n_total = data.shape[0]
        self.root_ = self._grow_reference(data, encoded, depth=0)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _grow_reference(
        self, data: np.ndarray, labels: np.ndarray, depth: int
    ) -> TreeNode:
        counts = np.bincount(labels, minlength=len(self.classes_)).astype(
            float
        )
        node = TreeNode(counts=counts, depth=depth)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or data.shape[0] < self.min_samples_split
            or counts.max() == counts.sum()
        ):
            return node
        split = self._best_split_reference(data, labels, counts)
        if split is None:
            return node
        feature, threshold, decrease = split
        mask = data[:, feature] <= threshold
        self._importance[feature] += decrease * data.shape[0] / self._n_total
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow_reference(data[mask], labels[mask], depth + 1)
        node.right = self._grow_reference(
            data[~mask], labels[~mask], depth + 1
        )
        return node

    def _best_split_reference(
        self, data: np.ndarray, labels: np.ndarray, counts: np.ndarray
    ) -> Optional[Tuple[int, float, float]]:
        n, d = data.shape
        parent_impurity = self._impurity(counts)
        if parent_impurity == 0.0:
            return None
        if self.max_features is not None and self.max_features < d:
            features = self._rng.choice(
                d, size=self.max_features, replace=False
            )
        else:
            features = np.arange(d)

        best: Optional[Tuple[int, float, float]] = None
        n_classes = len(self.classes_)
        one_hot = np.zeros((n, n_classes))
        one_hot[np.arange(n), labels] = 1.0
        min_leaf = self.min_samples_leaf
        for feature in features:
            values = data[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            if sorted_values[0] == sorted_values[-1]:
                continue
            left_counts = np.cumsum(one_hot[order], axis=0)
            # Candidate cut after position i (1-based left size i+1);
            # valid only between distinct consecutive values.
            boundaries = np.nonzero(
                sorted_values[:-1] < sorted_values[1:]
            )[0]
            if min_leaf > 1:
                boundaries = boundaries[
                    (boundaries + 1 >= min_leaf)
                    & (n - boundaries - 1 >= min_leaf)
                ]
            if len(boundaries) == 0:
                continue
            left = left_counts[boundaries]
            right = counts[None, :] - left
            left_sizes = left.sum(axis=1)
            right_sizes = right.sum(axis=1)
            if self.criterion == "gini":
                left_imp = 1.0 - (left**2).sum(axis=1) / left_sizes**2
                right_imp = 1.0 - (right**2).sum(axis=1) / right_sizes**2
            else:
                left_imp = _entropy_rows(left, left_sizes)
                right_imp = _entropy_rows(right, right_sizes)
            weighted = (
                left_sizes * left_imp + right_sizes * right_imp
            ) / n
            decreases = parent_impurity - weighted
            pick = int(np.argmax(decreases))
            decrease = float(decreases[pick])
            if decrease <= self.min_impurity_decrease:
                continue
            if best is None or decrease > best[2]:
                cut = boundaries[pick]
                threshold = float(
                    (sorted_values[cut] + sorted_values[cut + 1]) / 2.0
                )
                best = (int(feature), threshold, decrease)
        return best

    def predict_proba(self, data) -> np.ndarray:
        if self.root_ is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        data = as_matrix(data)
        if data.shape[1] != self.n_features_:
            raise MiningError(
                f"expected {self.n_features_} features, got {data.shape[1]}"
            )
        output = np.empty((data.shape[0], len(self.classes_)))
        for i, row in enumerate(data):
            node = self.root_
            while not node.is_leaf:
                node = (
                    node.left
                    if row[node.feature] <= node.threshold
                    else node.right
                )
            total = node.counts.sum()
            output[i] = node.counts / total if total else node.counts
        return output

    def _subtree_predict(
        self, node: TreeNode, rows: np.ndarray
    ) -> np.ndarray:
        out = np.empty(len(rows), dtype=int)
        for i, row in enumerate(rows):
            cursor = node
            while not cursor.is_leaf:
                cursor = (
                    cursor.left
                    if row[cursor.feature] <= cursor.threshold
                    else cursor.right
                )
            out[i] = cursor.prediction
        return out


def tree_nodes(node: TreeNode) -> List[Tuple[int, int, bytes, str, bytes]]:
    """Preorder ``(depth, feature, threshold, counts dtype, counts)`` of
    a tree, the floats as raw bytes so that equal lists mean
    bitwise-equal trees (``-0.0`` and ``0.0`` thresholds differ)."""
    nodes = []
    stack = [node]
    while stack:
        current = stack.pop()
        nodes.append(
            (
                current.depth,
                current.feature,
                np.float64(current.threshold).tobytes(),
                current.counts.dtype.str,
                current.counts.tobytes(),
            )
        )
        if not current.is_leaf:
            stack.append(current.right)
            stack.append(current.left)
    return nodes
