"""Tests for closed/maximal itemsets, kNN outliers, bootstrap stability."""

from unittest import mock

import numpy as np
import pytest

from repro.exceptions import MiningError
from repro.mining import (
    bootstrap_stability,
    closed_itemsets,
    fpgrowth,
    knn_outlier_scores,
    maximal_itemsets,
    stability_profile,
    top_outliers,
)


# ----------------------------------------------------------------------
# closed / maximal itemsets
# ----------------------------------------------------------------------
@pytest.fixture()
def frequent(transactions):
    return fpgrowth(transactions, 2 / 9)


def brute_closed(itemsets):
    return [
        s
        for s in itemsets
        if not any(
            s.items < t.items and t.count == s.count for t in itemsets
        )
    ]


def brute_maximal(itemsets):
    return [
        s
        for s in itemsets
        if not any(s.items < t.items for t in itemsets)
    ]


def test_closed_matches_brute_force(frequent):
    got = {s.items for s in closed_itemsets(frequent)}
    expected = {s.items for s in brute_closed(frequent)}
    assert got == expected


def test_maximal_matches_brute_force(frequent):
    got = {s.items for s in maximal_itemsets(frequent)}
    expected = {s.items for s in brute_maximal(frequent)}
    assert got == expected


def test_maximal_subset_of_closed(frequent):
    closed = {s.items for s in closed_itemsets(frequent)}
    maximal = {s.items for s in maximal_itemsets(frequent)}
    assert maximal <= closed


def test_closed_is_lossless_compression(frequent):
    """Every frequent itemset's support equals the support of its
    smallest closed superset."""
    closed = closed_itemsets(frequent)
    for itemset in frequent:
        supersets = [
            c for c in closed if itemset.items <= c.items
        ]
        assert supersets
        assert max(c.count for c in supersets) == itemset.count


def test_summaries_shrink_output(small_log):
    itemsets = fpgrowth(small_log.transactions(), 0.2)
    closed = closed_itemsets(itemsets)
    maximal = maximal_itemsets(itemsets)
    assert len(maximal) <= len(closed) <= len(itemsets)
    assert len(maximal) < len(itemsets)


def test_closed_on_equal_support_chain():
    """{a} always with {a, b}: only the larger one is closed."""
    itemsets = fpgrowth([["a", "b"], ["a", "b"], ["c"]], 1 / 3)
    closed = {s.items for s in closed_itemsets(itemsets)}
    assert frozenset(["a", "b"]) in closed
    assert frozenset(["a"]) not in closed


# ----------------------------------------------------------------------
# kNN outlier scores
# ----------------------------------------------------------------------
def test_isolated_point_scores_highest(blobs):
    data, __ = blobs
    spiked = np.vstack([data, [[50.0] * data.shape[1]]])
    scores = knn_outlier_scores(spiked, n_neighbors=4)
    assert int(np.argmax(scores)) == len(spiked) - 1


def test_top_outliers_ordering(blobs):
    data, __ = blobs
    spiked = np.vstack(
        [data, [[50.0] * data.shape[1]], [[-40.0] * data.shape[1]]]
    )
    indexes, scores = top_outliers(spiked, n_outliers=2, n_neighbors=4)
    assert set(indexes.tolist()) == {len(spiked) - 2, len(spiked) - 1}
    assert scores[0] >= scores[1]


def test_brute_force_matches_tree(blobs):
    data, __ = blobs
    tree_scores = knn_outlier_scores(
        data, n_neighbors=3, brute_force_dims=999
    )
    brute_scores = knn_outlier_scores(
        data, n_neighbors=3, brute_force_dims=1
    )
    assert np.allclose(tree_scores, brute_scores, atol=1e-9)


def test_duplicates_score_zero():
    data = np.vstack([np.zeros((6, 2)), np.ones((1, 2)) * 9])
    scores = knn_outlier_scores(data, n_neighbors=2)
    assert np.allclose(scores[:6], 0.0)
    assert scores[6] > 0


def test_outlier_validation(blobs):
    data, __ = blobs
    with pytest.raises(MiningError):
        knn_outlier_scores(data, n_neighbors=0)
    with pytest.raises(MiningError):
        knn_outlier_scores(data, n_neighbors=len(data))
    with pytest.raises(MiningError):
        top_outliers(data, n_outliers=0)
    # The argument is rejected before the O(n^2) scoring pass runs.
    with mock.patch(
        "repro.mining.outliers.knn_outlier_scores",
        side_effect=AssertionError("scored before validating"),
    ):
        with pytest.raises(MiningError):
            top_outliers(data, n_outliers=0)


# ----------------------------------------------------------------------
# bootstrap stability
# ----------------------------------------------------------------------
def test_true_k_is_stable(blobs):
    data, __ = blobs
    score = bootstrap_stability(data, 3, n_replicates=6, seed=0)
    assert score > 0.9


def test_wrong_k_less_stable(blobs):
    data, __ = blobs
    right = bootstrap_stability(data, 3, n_replicates=6, seed=0)
    wrong = bootstrap_stability(data, 7, n_replicates=6, seed=0)
    assert right > wrong


def test_pure_noise_is_unstable():
    rng = np.random.default_rng(0)
    noise = rng.uniform(size=(150, 4))
    score = bootstrap_stability(noise, 4, n_replicates=6, seed=0)
    assert score < 0.6


def test_stability_profile_keys(blobs):
    data, __ = blobs
    profile = stability_profile(data, (2, 3), n_replicates=4, seed=0)
    assert set(profile) == {2, 3}
    assert all(-1.0 <= value <= 1.0 for value in profile.values())


def test_stability_validation(blobs):
    data, __ = blobs
    with pytest.raises(MiningError):
        bootstrap_stability(data, 3, n_replicates=1)
    with pytest.raises(MiningError):
        bootstrap_stability(data, 3, sample_fraction=0.01)
