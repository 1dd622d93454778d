"""Tests for clustering and classification quality metrics."""

import numpy as np
import pytest

from repro.exceptions import MiningError
from repro.mining import (
    accuracy,
    adjusted_rand_index,
    calinski_harabasz_index,
    classification_report,
    confusion_matrix,
    davies_bouldin_index,
    normalized_mutual_information,
    overall_similarity,
    precision_recall_f1,
    purity,
    silhouette_score,
    sse,
)


# ----------------------------------------------------------------------
# SSE
# ----------------------------------------------------------------------
def test_sse_hand_computed():
    data = np.array([[0.0], [2.0], [10.0], [12.0]])
    labels = np.array([0, 0, 1, 1])
    # Centroids 1 and 11; each point at distance 1 -> SSE = 4.
    assert sse(data, labels) == pytest.approx(4.0)


def test_sse_with_explicit_centers():
    data = np.array([[0.0], [2.0]])
    labels = np.array([0, 0])
    assert sse(data, labels, centers=np.array([[0.0]])) == pytest.approx(
        4.0
    )


def test_sse_zero_for_singletons():
    data = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert sse(data, np.array([0, 1])) == pytest.approx(0.0)


def test_sse_misaligned_labels_raise():
    with pytest.raises(MiningError):
        sse(np.zeros((3, 2)), np.array([0, 1]))


# ----------------------------------------------------------------------
# overall similarity (the paper's interestingness metric)
# ----------------------------------------------------------------------
def test_overall_similarity_identical_vectors():
    data = np.tile([1.0, 2.0, 3.0], (5, 1))
    assert overall_similarity(data, np.zeros(5, dtype=int)) == pytest.approx(
        1.0
    )


def test_overall_similarity_orthogonal_pairs():
    data = np.array(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    )
    mixed = overall_similarity(data, np.array([0, 0, 1, 1]))
    separated = overall_similarity(data, np.array([0, 1, 0, 1]))
    # Orthogonal members: internal similarity 0.5 (self pairs only).
    assert mixed == pytest.approx(0.5)
    assert separated == pytest.approx(1.0)
    assert separated > mixed


def test_overall_similarity_exact_matches_fast(blobs):
    data, truth = blobs
    data = np.abs(data)  # non-negative, like exam counts
    fast = overall_similarity(data, truth)
    exact = overall_similarity(data, truth, exact=True)
    assert fast == pytest.approx(exact, abs=1e-10)


def test_overall_similarity_better_clustering_scores_higher(blobs):
    data, truth = blobs
    data = np.abs(data) + 0.1
    rng = np.random.default_rng(0)
    random_labels = rng.integers(0, 3, size=len(truth))
    assert overall_similarity(data, truth) > overall_similarity(
        data, random_labels
    )


def test_overall_similarity_in_unit_interval(small_log):
    matrix, __ = small_log.count_matrix()
    labels = np.arange(matrix.shape[0]) % 7
    value = overall_similarity(matrix, labels)
    assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# silhouette / DB / CH
# ----------------------------------------------------------------------
def test_silhouette_high_for_separated(blobs):
    data, truth = blobs
    assert silhouette_score(data, truth) > 0.8


def test_silhouette_poor_for_random(blobs):
    data, truth = blobs
    rng = np.random.default_rng(1)
    random_labels = rng.integers(0, 3, size=len(truth))
    assert silhouette_score(data, random_labels) < 0.1


def test_silhouette_requires_two_clusters(blobs):
    data, __ = blobs
    with pytest.raises(MiningError):
        silhouette_score(data, np.zeros(len(data), dtype=int))


def test_davies_bouldin_lower_is_better(blobs):
    data, truth = blobs
    rng = np.random.default_rng(2)
    random_labels = rng.integers(0, 3, size=len(truth))
    assert davies_bouldin_index(data, truth) < davies_bouldin_index(
        data, random_labels
    )


def test_calinski_harabasz_higher_is_better(blobs):
    data, truth = blobs
    rng = np.random.default_rng(3)
    random_labels = rng.integers(0, 3, size=len(truth))
    assert calinski_harabasz_index(data, truth) > calinski_harabasz_index(
        data, random_labels
    )


# ----------------------------------------------------------------------
# external cluster validation
# ----------------------------------------------------------------------
def test_ari_identical_and_permuted():
    labels = np.array([0, 0, 1, 1, 2, 2])
    permuted = np.array([2, 2, 0, 0, 1, 1])
    assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
    assert adjusted_rand_index(labels, permuted) == pytest.approx(1.0)


def test_ari_near_zero_for_random():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 4, size=2000)
    b = rng.integers(0, 4, size=2000)
    assert abs(adjusted_rand_index(a, b)) < 0.05


def test_nmi_bounds_and_permutation_invariance():
    labels = np.array([0, 0, 1, 1])
    assert normalized_mutual_information(labels, labels) == pytest.approx(
        1.0
    )
    assert normalized_mutual_information(
        labels, np.array([1, 1, 0, 0])
    ) == pytest.approx(1.0)
    independent = normalized_mutual_information(
        np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    )
    assert independent == pytest.approx(0.0, abs=1e-9)


def test_purity_values():
    truth = np.array([0, 0, 1, 1])
    assert purity(truth, np.array([0, 0, 1, 1])) == 1.0
    assert purity(truth, np.array([0, 0, 0, 0])) == 0.5


# ----------------------------------------------------------------------
# classification metrics
# ----------------------------------------------------------------------
def test_confusion_matrix_layout():
    matrix, classes = confusion_matrix(
        ["a", "a", "b"], ["a", "b", "b"]
    )
    assert classes == ["a", "b"]
    assert matrix.tolist() == [[1, 1], [0, 1]]


def _loop_confusion_matrix(y_true, y_pred, classes):
    """The per-row loop the vectorised matrix replaced."""
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        matrix[index[t], index[p]] += 1
    return matrix


@pytest.mark.parametrize("seed", range(5))
def test_confusion_matrix_matches_the_loop(seed):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(-2, 6, size=200)
    y_pred = rng.integers(0, 9, size=200)
    matrix, classes = confusion_matrix(y_true, y_pred)
    assert classes == sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    expected = _loop_confusion_matrix(y_true, y_pred, classes)
    assert matrix.dtype == np.int64
    assert np.array_equal(matrix, expected)
    given = list(rng.permutation(classes + [99]).tolist()) + [classes[0]]
    matrix, returned = confusion_matrix(y_true, y_pred, classes=given)
    assert returned == given
    assert np.array_equal(
        matrix, _loop_confusion_matrix(y_true, y_pred, given)
    )


def test_confusion_matrix_mixed_type_classes():
    y_true = np.array([0, 1, 0, 1], dtype=object)
    y_pred = np.array([0, "x", "x", 1], dtype=object)
    classes = [0, "x", 1]
    matrix, returned = confusion_matrix(y_true, y_pred, classes=classes)
    assert returned == classes
    assert np.array_equal(
        matrix, _loop_confusion_matrix(y_true, y_pred, classes)
    )
    matrix, __ = confusion_matrix([0, 1, 0], [1, 1, 0], classes=[0, "x", 1])
    assert matrix.tolist() == [[1, 0, 1], [0, 0, 0], [0, 0, 1]]


def test_confusion_matrix_rejects_labels_outside_classes():
    with pytest.raises(MiningError, match="'c'"):
        confusion_matrix(["a", "c"], ["a", "b"], classes=["a", "b"])


def test_accuracy_simple():
    assert accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == pytest.approx(0.5)
    with pytest.raises(MiningError):
        accuracy([], [])


def test_precision_recall_hand_computed():
    # One class perfectly predicted, the other never predicted.
    y_true = [0, 0, 1, 1]
    y_pred = [0, 0, 0, 0]
    precision, recall, f1 = precision_recall_f1(y_true, y_pred, "macro")
    assert precision == pytest.approx((0.5 + 0.0) / 2)
    assert recall == pytest.approx((1.0 + 0.0) / 2)


def test_micro_average_equals_accuracy():
    y_true = [0, 1, 2, 2, 1]
    y_pred = [0, 2, 2, 2, 1]
    precision, recall, f1 = precision_recall_f1(y_true, y_pred, "micro")
    assert precision == recall == f1 == pytest.approx(
        accuracy(y_true, y_pred)
    )


def test_weighted_average_reflects_support():
    y_true = [0] * 9 + [1]
    y_pred = [0] * 10
    __, weighted_recall, __ = precision_recall_f1(
        y_true, y_pred, "weighted"
    )
    __, macro_recall, __ = precision_recall_f1(y_true, y_pred, "macro")
    assert weighted_recall == pytest.approx(0.9)
    assert macro_recall == pytest.approx(0.5)


def test_unknown_average_raises():
    with pytest.raises(MiningError):
        precision_recall_f1([0], [0], "harmonic")


def test_classification_report_structure():
    report = classification_report([0, 1, 1], [0, 1, 0])
    assert set(report) == {"0", "1", "macro avg", "accuracy"}
    assert report["1"]["support"] == 2.0
    assert 0.0 <= report["macro avg"]["f1"] <= 1.0


def test_perfect_prediction_metrics():
    y = [0, 1, 2, 0, 1, 2]
    precision, recall, f1 = precision_recall_f1(y, y, "macro")
    assert precision == recall == f1 == 1.0
