"""CART decision-tree classifier (plus a majority-class baseline).

The ADA-HEALTH optimiser assesses the robustness of a cluster set by
training a classifier "using the same input features of the clustering
algorithm, and the class label assigned by the clustering algorithm
itself as target. ... In our first implementation, we used decision
trees as classification model." This module supplies that model: a
binary CART tree with gini/entropy impurity, the usual pre-pruning
controls and optional reduced-error post-pruning.

The split search is exact and coded. ``fit`` codes every column once:
each distinct value gets a global bin id (``np.unique`` plus
``searchsorted``), all held in one int32 matrix, and growth carries row
indices instead of copying the rows. At each node, one ``np.bincount``
over ``bin * n_classes + label`` gives the class histogram of every
drawn feature. A running sum within each feature's bins gives the left
class counts of every cut between two bins present in the node. A cut's
threshold is the midpoint of the two values, and rows are routed by the
float test ``x <= threshold``. When a node holds far fewer cells than
its coding has bins (near-continuous columns, deep nodes), it re-codes
its rows against the bins they use, so the histogram stays proportional
to the node. ``predict_proba`` and pruning walk all rows down a
flattened copy of the tree together, one array step per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MiningError, NotFittedError
from repro.mining.distance import as_matrix


def gini_impurity(counts: np.ndarray) -> float:
    """Gini impurity from a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - (proportions**2).sum())


def entropy_impurity(counts: np.ndarray) -> float:
    """Shannon entropy (nats) from a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    nonzero = proportions[proportions > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


@dataclass
class TreeNode:
    """A node of the fitted tree. Leaves carry the class distribution."""

    counts: np.ndarray
    depth: int
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def prediction(self) -> int:
        """Majority class index (ties break low)."""
        return int(np.argmax(self.counts))

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())


class DecisionTreeClassifier:
    """Binary CART classifier.

    Parameters
    ----------
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_depth:
        Depth cap (root has depth 0); ``None`` for unbounded.
    min_samples_split:
        Minimum node size to attempt a split.
    min_samples_leaf:
        Minimum samples on each side of any accepted split.
    min_impurity_decrease:
        Minimum weighted impurity decrease to accept a split.
    max_features:
        If set, the number of features sampled (without replacement) at
        every node; ``None`` evaluates all features.
    seed:
        Seed for feature subsampling.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise MiningError(f"unknown criterion: {criterion!r}")
        if max_depth is not None and max_depth < 0:
            raise MiningError("max_depth must be >= 0")
        if min_samples_split < 2:
            raise MiningError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise MiningError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.seed = seed
        self.root_: Optional[TreeNode] = None
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.feature_importances_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, data, labels) -> "DecisionTreeClassifier":
        """Grow the tree on ``(data, labels)``; returns ``self``."""
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
        rows = np.arange(data.shape[0])
        self.root_ = self._grow(
            data, encoded, _code_columns(data), rows, rows, depth=0
        )
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _grow(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        coding: _Coding,
        rows: np.ndarray,
        positions: np.ndarray,
        depth: int,
    ) -> TreeNode:
        """Grow the subtree over ``data[rows]``.

        ``positions`` locates the same rows in ``coding.codes``: equal to
        ``rows`` under the fit-wide coding, ``arange`` after a node
        re-coded its rows (:func:`_compact`).
        """
        node_labels = labels[rows]
        counts = np.bincount(
            node_labels, minlength=len(self.classes_)
        ).astype(float)
        node = TreeNode(counts=counts, depth=depth)
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(rows) < self.min_samples_split
            or counts.max() == counts.sum()
        ):
            return node
        if len(coding.values) > _SPARSE_BINS * len(rows) * data.shape[1]:
            coding = _compact(coding, positions)
            positions = np.arange(len(rows))
        split = self._best_split(coding, positions, node_labels, counts)
        if split is None:
            return node
        feature, threshold, decrease = split
        mask = data[rows, feature] <= threshold
        self._importance[feature] += decrease * len(rows) / self._n_total
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(
            data, labels, coding, rows[mask], positions[mask], depth + 1
        )
        node.right = self._grow(
            data, labels, coding, rows[~mask], positions[~mask], depth + 1
        )
        return node

    def _best_split(
        self,
        coding: _Coding,
        positions: np.ndarray,
        labels: np.ndarray,
        counts: np.ndarray,
    ) -> Optional[Tuple[int, float, float]]:
        """Return ``(feature, threshold, impurity decrease)`` or None.

        One class histogram over the drawn features' bins, laid out in
        draw order, scores every cut between two bins present in the
        node. The first maximum wins: first feature in draw order, then
        first cut.
        """
        n = len(positions)
        d = self.n_features_
        parent_impurity = self._impurity(counts)
        if parent_impurity == 0.0:
            return None
        if self.max_features is not None and self.max_features < d:
            features = self._rng.choice(
                d, size=self.max_features, replace=False
            )
            block = coding.codes[positions][:, features]
        else:
            features = np.arange(d)
            block = coding.codes[positions]

        n_classes = len(self.classes_)
        widths = np.diff(coding.starts)[features]
        firsts = np.concatenate(([0], np.cumsum(widths)))
        # Global bin id -> bin id in the drawn features' layout.
        shift = firsts[:-1] - coding.starts[features]
        keys = (block + shift) * n_classes + labels[:, None]
        histogram = np.bincount(
            keys.ravel(), minlength=firsts[-1] * n_classes
        ).reshape(-1, n_classes)
        present = np.flatnonzero(histogram.any(axis=1))
        slot = np.searchsorted(firsts, present, side="right") - 1
        # A cut follows every present bin whose successor among the
        # present bins belongs to the same feature.
        cuts = np.flatnonzero(slot[:-1] == slot[1:])
        # Every feature segment holds all n rows, so subtracting
        # ``slot`` whole class-count vectors restarts the running sum at
        # each feature.
        left = np.cumsum(histogram[present], axis=0)[cuts]
        left -= slot[cuts, None] * np.bincount(labels, minlength=n_classes)
        min_leaf = self.min_samples_leaf
        if min_leaf > 1:
            sizes = left.sum(axis=1)
            keep = (sizes >= min_leaf) & (n - sizes >= min_leaf)
            cuts = cuts[keep]
            left = left[keep]
        if len(cuts) == 0:
            return None
        left = left.astype(np.float64)
        right = counts[None, :] - left
        left_sizes = left.sum(axis=1)
        right_sizes = right.sum(axis=1)
        if self.criterion == "gini":
            left_imp = 1.0 - (left**2).sum(axis=1) / left_sizes**2
            right_imp = 1.0 - (right**2).sum(axis=1) / right_sizes**2
        else:
            left_imp = _entropy_rows(left, left_sizes)
            right_imp = _entropy_rows(right, right_sizes)
        weighted = (left_sizes * left_imp + right_sizes * right_imp) / n
        decreases = parent_impurity - weighted
        pick = int(np.argmax(decreases))
        decrease = float(decreases[pick])
        if decrease <= self.min_impurity_decrease:
            return None
        cut = cuts[pick]
        feature_slot = slot[cut]
        low, high = present[cut : cut + 2] - shift[feature_slot]
        threshold = float((coding.values[low] + coding.values[high]) / 2.0)
        return int(features[feature_slot]), threshold, decrease

    # ------------------------------------------------------------------
    def predict(self, data) -> np.ndarray:
        """Predicted class labels."""
        probabilities = self.predict_proba(data)
        picks = np.argmax(probabilities, axis=1)
        return self.classes_[picks]  # type: ignore[index]

    def predict_proba(self, data) -> np.ndarray:
        """Per-class probabilities from leaf class frequencies."""
        if self.root_ is None:
            raise NotFittedError("DecisionTreeClassifier is not fitted")
        data = as_matrix(data)
        if data.shape[1] != self.n_features_:
            raise MiningError(
                f"expected {self.n_features_} features, got {data.shape[1]}"
            )
        flat = _FlatTree.of(self.root_)
        totals = flat.counts.sum(axis=1)
        probabilities = flat.counts / np.where(totals > 0, totals, 1.0)[
            :, None
        ]
        return probabilities[flat.leaves(data)]

    def score(self, data, labels) -> float:
        """Mean accuracy on the given data."""
        labels = np.asarray(labels)
        return float((self.predict(data) == labels).mean())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Depth of the fitted tree (single leaf = 0)."""
        if self.root_ is None:
            raise NotFittedError("tree is not fitted")

        def visit(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(visit(node.left), visit(node.right))

        return visit(self.root_)

    def n_leaves(self) -> int:
        """Number of leaves."""
        if self.root_ is None:
            raise NotFittedError("tree is not fitted")

        def visit(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return visit(node.left) + visit(node.right)

        return visit(self.root_)

    def export_text(
        self, feature_names: Optional[Sequence[str]] = None
    ) -> str:
        """Human-readable rendering of the decision rules."""
        if self.root_ is None:
            raise NotFittedError("tree is not fitted")
        lines: List[str] = []

        def name(feature: int) -> str:
            if feature_names is not None:
                return str(feature_names[feature])
            return f"feature[{feature}]"

        def visit(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                cls = self.classes_[node.prediction]  # type: ignore[index]
                lines.append(
                    f"{indent}predict {cls!r} (n={node.n_samples})"
                )
                return
            lines.append(
                f"{indent}if {name(node.feature)} <= {node.threshold:.4f}:"
            )
            visit(node.left, indent + "  ")
            lines.append(f"{indent}else:")
            visit(node.right, indent + "  ")

        visit(self.root_, "")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def prune(self, data, labels) -> "DecisionTreeClassifier":
        """Reduced-error post-pruning against a validation set.

        Bottom-up: replace an internal node by a leaf whenever doing so
        does not reduce accuracy on ``(data, labels)``.
        """
        if self.root_ is None:
            raise NotFittedError("tree is not fitted")
        data = as_matrix(data)
        labels = np.asarray(labels)
        encoded = np.searchsorted(self.classes_, labels)

        def visit(node: TreeNode, rows: np.ndarray, y: np.ndarray) -> None:
            if node.is_leaf or len(y) == 0:
                return
            mask = rows[:, node.feature] <= node.threshold
            visit(node.left, rows[mask], y[mask])
            visit(node.right, rows[~mask], y[~mask])
            subtree_correct = int(
                (self._subtree_predict(node, rows) == y).sum()
            )
            leaf_correct = int((y == node.prediction).sum())
            if leaf_correct >= subtree_correct:
                node.left = None
                node.right = None
                node.feature = -1

        visit(self.root_, data, encoded)
        return self

    def _subtree_predict(
        self, node: TreeNode, rows: np.ndarray
    ) -> np.ndarray:
        flat = _FlatTree.of(node)
        return np.argmax(flat.counts[flat.leaves(rows)], axis=1)


def _entropy_rows(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row-wise entropy of count matrices (sizes = row sums)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        proportions = counts / sizes[:, None]
        logs = np.where(proportions > 0, np.log(proportions), 0.0)
    return -(proportions * logs).sum(axis=1)


#: A node re-codes its rows (:func:`_compact`) once the coding it
#: inherited has more than this many bins per (row, feature) cell, so
#: the class histogram stays proportional to the node, not to the fit
#: matrix, on near-continuous columns.
_SPARSE_BINS = 4


@dataclass
class _Coding:
    """Every column of a fit matrix as integer bin ids.

    Feature ``f`` owns the global bins ``starts[f]:starts[f + 1]``, one
    per distinct value in ascending order; ``values[b]`` is the value
    bin ``b`` stands for and ``codes[i, f]`` the bin of row ``i``.
    """

    codes: np.ndarray
    values: np.ndarray
    starts: np.ndarray


def _code_columns(data: np.ndarray) -> _Coding:
    """Code each column of ``data`` once, against its distinct values."""
    columns = np.ascontiguousarray(data.T)
    codes = np.empty(columns.shape, dtype=np.int32)
    distinct = [np.unique(column) for column in columns]
    for feature, column in enumerate(columns):
        codes[feature] = np.searchsorted(distinct[feature], column)
    starts = np.zeros(len(distinct) + 1, dtype=np.intp)
    np.cumsum([len(values) for values in distinct], out=starts[1:])
    codes += starts[:-1, None].astype(np.int32)
    return _Coding(
        np.ascontiguousarray(codes.T), np.concatenate(distinct), starts
    )


def _compact(coding: _Coding, positions: np.ndarray) -> _Coding:
    """Re-code the rows at ``positions`` against the bins they use.

    Bins keep their order, so every feature's bins stay contiguous and
    ascending; the result's ``codes`` row ``i`` is ``positions[i]``.
    """
    codes = coding.codes[positions]
    present = np.zeros(len(coding.values), dtype=bool)
    present[codes] = True
    renumber = np.concatenate(([0], np.cumsum(present)))
    return _Coding(
        renumber[codes].astype(np.int32),
        coding.values[present],
        renumber[coding.starts],
    )


@dataclass
class _FlatTree:
    """A (sub)tree as node arrays, in preorder from its root.

    A leaf's children are the leaf itself, so a fixed number of
    descents (the subtree's depth) lands every row on its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    depth: int

    @classmethod
    def of(cls, root: TreeNode) -> "_FlatTree":
        nodes: List[TreeNode] = []
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        index = {id(node): i for i, node in enumerate(nodes)}
        feature = np.zeros(len(nodes), dtype=np.intp)
        threshold = np.zeros(len(nodes))
        left = np.arange(len(nodes))
        right = np.arange(len(nodes))
        for i, node in enumerate(nodes):
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index[id(node.left)]
                right[i] = index[id(node.right)]
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            counts=np.array([node.counts for node in nodes]),
            depth=max(node.depth for node in nodes) - root.depth,
        )

    def leaves(self, data: np.ndarray) -> np.ndarray:
        """Index of the leaf each row of ``data`` falls in."""
        rows = np.arange(len(data))
        at = np.zeros(len(data), dtype=np.intp)
        for __ in range(self.depth):
            go_left = data[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
        return at


class MajorityClassifier:
    """Baseline that always predicts the most frequent training class."""

    def __init__(self) -> None:
        self.prediction_: Optional[object] = None

    def fit(self, data, labels) -> "MajorityClassifier":
        labels = np.asarray(labels)
        if labels.size == 0:
            raise MiningError("cannot fit on empty labels")
        values, counts = np.unique(labels, return_counts=True)
        self.prediction_ = values[int(np.argmax(counts))]
        return self

    def predict(self, data) -> np.ndarray:
        if self.prediction_ is None:
            raise NotFittedError("MajorityClassifier is not fitted")
        data = np.asarray(data)
        return np.full(data.shape[0], self.prediction_)
