"""Quality metrics for clustering and classification.

Implements every index the paper's optimiser uses —

* **SSE** (Sum of Squared Error), the cluster-cohesion index for
  center-based clustering (paper ref [4], Tan/Steinbach/Kumar);
* **overall similarity**, the interestingness metric the partial-mining
  experiment is scored with: "the internal pairwise similarity of
  patients within each cluster, ... taking the weighted sum over the
  whole cluster set";
* **accuracy / average precision / average recall**, the decision-tree
  robustness metrics of Table I —

plus the standard extras a downstream user expects (silhouette,
Davies-Bouldin, Calinski-Harabasz, purity, ARI, NMI, confusion matrix,
F1 with macro/micro/weighted averaging).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MiningError
from repro.mining.distance import (
    as_matrix,
    cosine_similarity,
    row_norms,
    squared_euclidean,
)


def _check_labels(data: np.ndarray, labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != data.shape[0]:
        raise MiningError("labels must be 1-D and aligned with the data")
    return labels


# ----------------------------------------------------------------------
# Clustering quality
# ----------------------------------------------------------------------
def sse(data, labels, centers: Optional[np.ndarray] = None) -> float:
    """Sum of squared errors to each point's cluster centroid.

    When ``centers`` is omitted, centroids are the within-cluster means
    (which minimise SSE for the given assignment).
    """
    data = as_matrix(data)
    labels = _check_labels(data, labels)
    total = 0.0
    for cluster in np.unique(labels):
        members = data[labels == cluster]
        if centers is None:
            center = members.mean(axis=0)
        else:
            center = centers[int(cluster)]
        diffs = members - center
        total += float(np.einsum("ij,ij->", diffs, diffs))
    return total


def overall_similarity(
    data,
    labels,
    exact: bool = False,
) -> float:
    """Weighted average within-cluster pairwise cosine similarity.

    For each cluster the *internal similarity* averages the cosine
    similarity of every ordered pair of members (self-pairs included, as
    in Tan/Steinbach/Kumar where the cluster cohesion equals the squared
    norm of the centroid of the unit-normalised members). The overall
    value is the cluster-size-weighted mean — in ``[0, 1]`` for
    non-negative data, higher is better.

    Parameters
    ----------
    exact:
        Compute the O(m^2) pairwise sum instead of the centroid identity.
        Both paths return the same value up to floating-point error; the
        exact path exists for verification.
    """
    return unit_overall_similarity(unit_rows(data), labels, exact)


def unit_rows(data) -> np.ndarray:
    """``data`` with every row scaled to unit Euclidean norm; all-zero
    rows stay zero. The rows :func:`overall_similarity` scores."""
    data = as_matrix(data)
    norms = row_norms(data)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = data / norms[:, None]
    return np.nan_to_num(unit)


def unit_overall_similarity(unit, labels, exact: bool = False) -> float:
    """:func:`overall_similarity` of rows already passed through
    :func:`unit_rows`, bit for bit: scoring several labelings of one
    matrix normalises it once."""
    labels = _check_labels(unit, labels)
    n = unit.shape[0]
    total = 0.0
    for cluster in np.unique(labels):
        members = unit[labels == cluster]
        size = members.shape[0]
        if exact:
            sims = cosine_similarity(members)
            internal = float(sims.sum()) / (size * size)
        else:
            centroid = members.mean(axis=0)
            internal = float(centroid @ centroid)
        total += size * internal
    return total / n


def silhouette_score(data, labels) -> float:
    """Mean silhouette coefficient over all points.

    ``(b - a) / max(a, b)`` where ``a`` is the mean intra-cluster
    distance and ``b`` the mean distance to the nearest other cluster.
    Singleton clusters contribute 0 by convention.
    """
    data = as_matrix(data)
    labels = _check_labels(data, labels)
    clusters = np.unique(labels)
    if len(clusters) < 2:
        raise MiningError("silhouette requires at least 2 clusters")
    distances = np.sqrt(squared_euclidean(data, data))
    scores = np.zeros(data.shape[0])
    masks = {cluster: labels == cluster for cluster in clusters}
    for i in range(data.shape[0]):
        own = masks[labels[i]]
        own_size = own.sum()
        if own_size <= 1:
            scores[i] = 0.0
            continue
        a = distances[i, own].sum() / (own_size - 1)
        b = np.inf
        for cluster in clusters:
            if cluster == labels[i]:
                continue
            other = masks[cluster]
            b = min(b, distances[i, other].mean())
        scores[i] = 0.0 if max(a, b) == 0 else (b - a) / max(a, b)
    return float(scores.mean())


def davies_bouldin_index(data, labels) -> float:
    """Davies-Bouldin index (lower is better)."""
    data = as_matrix(data)
    labels = _check_labels(data, labels)
    clusters = np.unique(labels)
    if len(clusters) < 2:
        raise MiningError("Davies-Bouldin requires at least 2 clusters")
    centroids = np.vstack(
        [data[labels == cluster].mean(axis=0) for cluster in clusters]
    )
    scatter = np.array(
        [
            float(
                np.sqrt(
                    squared_euclidean(
                        data[labels == cluster], centroids[i : i + 1]
                    )
                ).mean()
            )
            for i, cluster in enumerate(clusters)
        ]
    )
    separation = np.sqrt(squared_euclidean(centroids, centroids))
    k = len(clusters)
    worst = np.zeros(k)
    for i in range(k):
        ratios = [
            (scatter[i] + scatter[j]) / separation[i, j]
            for j in range(k)
            if j != i and separation[i, j] > 0
        ]
        worst[i] = max(ratios) if ratios else 0.0
    return float(worst.mean())


def calinski_harabasz_index(data, labels) -> float:
    """Calinski-Harabasz variance-ratio criterion (higher is better)."""
    data = as_matrix(data)
    labels = _check_labels(data, labels)
    clusters = np.unique(labels)
    k = len(clusters)
    n = data.shape[0]
    if k < 2 or k >= n:
        raise MiningError("Calinski-Harabasz requires 2 <= k < n")
    overall_mean = data.mean(axis=0)
    between = 0.0
    within = 0.0
    for cluster in clusters:
        members = data[labels == cluster]
        centroid = members.mean(axis=0)
        gap = centroid - overall_mean
        between += members.shape[0] * float(gap @ gap)
        diffs = members - centroid
        within += float(np.einsum("ij,ij->", diffs, diffs))
    if within == 0.0:
        return float("inf")
    return float((between / (k - 1)) / (within / (n - k)))


def purity(true_labels, cluster_labels) -> float:
    """Fraction of points in each cluster's majority true class."""
    true_labels = np.asarray(true_labels)
    cluster_labels = np.asarray(cluster_labels)
    if true_labels.shape != cluster_labels.shape:
        raise MiningError("label arrays must align")
    total = 0
    for cluster in np.unique(cluster_labels):
        members = true_labels[cluster_labels == cluster]
        __, counts = np.unique(members, return_counts=True)
        total += counts.max()
    return total / len(true_labels)


def _pair_counts(a: np.ndarray, b: np.ndarray) -> Tuple[float, float, float]:
    """Comembership pair counts used by the Rand family."""
    classes_a, a_idx = np.unique(a, return_inverse=True)
    classes_b, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((len(classes_a), len(classes_b)))
    np.add.at(table, (a_idx, b_idx), 1)
    comb = lambda x: x * (x - 1) / 2.0
    sum_table = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    return sum_table, sum_a, sum_b


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two labelings (1 = identical)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise MiningError("label arrays must align")
    n = len(a)
    sum_table, sum_a, sum_b = _pair_counts(a, b)
    total_pairs = n * (n - 1) / 2.0
    expected = sum_a * sum_b / total_pairs if total_pairs else 0.0
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_table - expected) / (maximum - expected))


def normalized_mutual_information(labels_a, labels_b) -> float:
    """NMI with arithmetic-mean normalisation."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise MiningError("label arrays must align")
    n = len(a)
    classes_a, a_idx = np.unique(a, return_inverse=True)
    classes_b, b_idx = np.unique(b, return_inverse=True)
    table = np.zeros((len(classes_a), len(classes_b)))
    np.add.at(table, (a_idx, b_idx), 1)
    joint = table / n
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    mutual = float(
        (joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum()
    )
    entropy = lambda p: -float((p[p > 0] * np.log(p[p > 0])).sum())
    ha, hb = entropy(pa), entropy(pb)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    denominator = (ha + hb) / 2.0
    return 0.0 if denominator == 0.0 else mutual / denominator


# ----------------------------------------------------------------------
# Classification quality
# ----------------------------------------------------------------------
def confusion_matrix(
    y_true, y_pred, classes: Optional[Sequence] = None
) -> Tuple[np.ndarray, List]:
    """Return ``(matrix, classes)``; rows = true class, cols = predicted."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise MiningError("y_true and y_pred must align")
    if classes is None:
        classes = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    classes = list(classes)
    index = {c: i for i, c in enumerate(classes)}
    count = len(classes)
    try:
        rows = np.fromiter(
            (index[t] for t in y_true.tolist()), np.int64, len(y_true)
        )
        cols = np.fromiter(
            (index[p] for p in y_pred.tolist()), np.int64, len(y_pred)
        )
    except KeyError as exc:
        raise MiningError(
            f"label {exc.args[0]!r} is not among the classes"
        ) from None
    matrix = np.bincount(rows * count + cols, minlength=count * count)
    return matrix.astype(np.int64).reshape(count, count), classes


def accuracy(y_true, y_pred) -> float:
    """Fraction of correct predictions."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise MiningError("y_true and y_pred must align")
    if len(y_true) == 0:
        raise MiningError("empty label arrays")
    return float((y_true == y_pred).mean())


def precision_recall_f1(
    y_true, y_pred, average: str = "macro"
) -> Tuple[float, float, float]:
    """Precision, recall and F1 with the requested averaging.

    ``average`` is ``"macro"`` (unweighted class mean — the paper's
    "average precision/recall"), ``"micro"`` (global counts) or
    ``"weighted"`` (class mean weighted by support). Classes with zero
    predicted (resp. actual) instances contribute precision (resp.
    recall) of 0, mirroring common practice.
    """
    matrix, classes = confusion_matrix(y_true, y_pred)
    tp = np.diag(matrix).astype(float)
    predicted = matrix.sum(axis=0).astype(float)
    actual = matrix.sum(axis=1).astype(float)

    if average == "micro":
        total = matrix.sum()
        value = float(tp.sum() / total) if total else 0.0
        return value, value, value

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(actual > 0, tp / actual, 0.0)
        f1 = np.where(
            precision + recall > 0,
            2 * precision * recall / (precision + recall),
            0.0,
        )
    if average == "macro":
        return (
            _unit(precision.mean()),
            _unit(recall.mean()),
            _unit(f1.mean()),
        )
    if average == "weighted":
        # The weights sum to 1 only up to float error, so the dot
        # product of all-1.0 scores can overshoot 1 by ~1e-16; clamp.
        weights = actual / actual.sum()
        return (
            _unit(precision @ weights),
            _unit(recall @ weights),
            _unit(f1 @ weights),
        )
    raise MiningError(f"unknown average: {average!r}")


def _unit(value) -> float:
    """Clamp an averaged score into the closed unit interval."""
    return min(1.0, max(0.0, float(value)))


def classification_report(y_true, y_pred) -> Dict[str, Dict[str, float]]:
    """Per-class precision/recall/F1/support plus macro averages."""
    matrix, classes = confusion_matrix(y_true, y_pred)
    tp = np.diag(matrix).astype(float)
    predicted = matrix.sum(axis=0).astype(float)
    actual = matrix.sum(axis=1).astype(float)
    report: Dict[str, Dict[str, float]] = {}
    for i, cls in enumerate(classes):
        precision = tp[i] / predicted[i] if predicted[i] else 0.0
        recall = tp[i] / actual[i] if actual[i] else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        report[str(cls)] = {
            "precision": float(precision),
            "recall": float(recall),
            "f1": float(f1),
            "support": float(actual[i]),
        }
    macro_p, macro_r, macro_f = precision_recall_f1(y_true, y_pred, "macro")
    report["macro avg"] = {
        "precision": macro_p,
        "recall": macro_r,
        "f1": macro_f,
        "support": float(actual.sum()),
    }
    report["accuracy"] = {
        "precision": accuracy(y_true, y_pred),
        "recall": accuracy(y_true, y_pred),
        "f1": accuracy(y_true, y_pred),
        "support": float(actual.sum()),
    }
    return report
