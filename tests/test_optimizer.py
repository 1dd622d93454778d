"""Tests for the K-selection optimiser (Table I machinery)."""

import functools

import numpy as np
import pytest

from repro.core import (
    KMeansOptimizer,
    OptimizationReport,
    OptimizationRow,
    sse_plateau,
)
import repro.core.optimizer as optimizer_module
from repro.core.optimizer import PAPER_K_VALUES
from repro.exceptions import MiningError
from repro.preprocess import L2Normalizer, VSMBuilder
from tests.cart_reference import ReferenceDecisionTree


@pytest.fixture(scope="module")
def matrix(small_log):
    vsm = VSMBuilder("binary").build(small_log)
    return L2Normalizer().transform(vsm.matrix)


@pytest.fixture(scope="module")
def report(matrix):
    optimizer = KMeansOptimizer(
        k_values=(3, 5, 7, 9), n_folds=4, seed=0,
        kmeans_params={"n_init": 2},
    )
    return optimizer.optimize(matrix)


def test_paper_k_values_constant():
    assert PAPER_K_VALUES == (6, 7, 8, 9, 10, 12, 15, 20)


def test_rows_sorted_by_k(report):
    ks = [row.k for row in report.rows]
    assert ks == [3, 5, 7, 9]


def test_sse_decreases_with_k(report):
    sses = [row.sse for row in report.rows]
    assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))


def test_metrics_in_unit_interval(report):
    for row in report.rows:
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.avg_precision <= 1.0
        assert 0.0 <= row.avg_recall <= 1.0
        assert 0.0 <= row.overall_similarity <= 1.0


def test_best_k_maximises_combined(report):
    best = max(report.rows, key=lambda row: row.combined)
    assert report.best_k == best.k
    assert report.best_row.k == best.k


def test_best_row_carries_labels_and_centers(report, matrix):
    row = report.best_row
    assert row.labels is not None and len(row.labels) == matrix.shape[0]
    assert row.centers is not None and row.centers.shape[0] == row.k


def test_format_table_layout(report):
    table = report.format_table()
    assert "SSE" in table and "Accuracy" in table
    assert f"selected K = {report.best_k}" in table
    # Metrics rendered as percentages.
    best = report.best_row
    assert f"{best.accuracy * 100:.2f}" in table


def test_as_table_row_keys(report):
    row = report.rows[0].as_table_row()
    assert set(row) == {"K", "SSE", "Accuracy", "AVG Precision", "AVG Recall"}


def test_combined_formula():
    row = OptimizationRow(
        k=5, sse=1.0, accuracy=0.9, avg_precision=0.6, avg_recall=0.3,
        overall_similarity=0.5,
    )
    assert row.combined == pytest.approx(0.6)


def test_validation_errors():
    with pytest.raises(MiningError):
        KMeansOptimizer(k_values=())
    with pytest.raises(MiningError):
        KMeansOptimizer(k_values=(1, 2))


def test_deterministic(matrix):
    a = KMeansOptimizer(k_values=(3, 5), n_folds=3, seed=4).optimize(matrix)
    b = KMeansOptimizer(k_values=(3, 5), n_folds=3, seed=4).optimize(matrix)
    assert a.best_k == b.best_k
    assert [row.sse for row in a.rows] == [row.sse for row in b.rows]


def test_executor_injection(matrix):
    from repro.cloud import ProcessPoolExecutorBackend

    optimizer = KMeansOptimizer(
        k_values=(3, 5), n_folds=3, seed=0,
        executor=ProcessPoolExecutorBackend(2),
    )
    report = optimizer.optimize(matrix)
    assert [row.k for row in report.rows] == [3, 5]


def test_coded_tree_reproduces_the_reference_tree_sweep(matrix):
    """The optimiser's CV with the coded-bin CART gives every Table I
    row exactly as the per-feature reference tree does."""
    seed = 3
    optimizer = KMeansOptimizer(
        k_values=(3, 5, 7, 9), n_folds=4, seed=seed,
        kmeans_params={"n_init": 2},
    )
    reference = KMeansOptimizer(
        k_values=(3, 5, 7, 9), n_folds=4, seed=seed,
        kmeans_params={"n_init": 2},
        classifier_factory=functools.partial(
            ReferenceDecisionTree, seed=seed, **optimizer.tree_params
        ),
    )
    rows = optimizer.optimize(matrix).rows
    expected = reference.optimize(matrix).rows
    assert len(rows) == len(expected) == 4
    assert min(row.accuracy for row in rows) < 1.0
    for row, want in zip(rows, expected):
        assert (
            row.k, row.sse, row.accuracy, row.avg_precision,
            row.avg_recall, row.overall_similarity,
        ) == (
            want.k, want.sse, want.accuracy, want.avg_precision,
            want.avg_recall, want.overall_similarity,
        )
        assert np.array_equal(row.labels, want.labels)
        assert np.array_equal(row.centers, want.centers)


def test_sse_plateau_detects_flat_tail():
    rows = [
        OptimizationRow(k=k, sse=sse, accuracy=0, avg_precision=0,
                        avg_recall=0, overall_similarity=0)
        for k, sse in [(2, 100.0), (4, 40.0), (6, 35.0), (8, 33.0)]
    ]
    plateau = sse_plateau(rows)
    assert 6 in plateau and 8 in plateau and 4 not in plateau


def test_sse_plateau_short_input():
    rows = [
        OptimizationRow(k=2, sse=10.0, accuracy=0, avg_precision=0,
                        avg_recall=0, overall_similarity=0)
    ]
    assert sse_plateau(rows) == [2]


def test_separable_data_small_k_wins(blobs):
    """On 3 clean blobs small K dominates: cluster boundaries align with
    real structure, so the robustness classifier is perfect; large K
    splits blobs arbitrarily and degrades."""
    data, __ = blobs
    optimizer = KMeansOptimizer(k_values=(2, 3, 6, 9), n_folds=4, seed=0)
    report = optimizer.optimize(data)
    assert report.best_k in (2, 3)
    assert report.best_row.combined == pytest.approx(1.0, abs=0.02)
    worst = max(report.rows, key=lambda row: row.k)
    assert worst.combined < report.best_row.combined


def _tied_row(k):
    """A row whose combined score is exactly 1.0, whatever its K."""
    return OptimizationRow(k=k, sse=100.0 / k, accuracy=1.0,
                           avg_precision=1.0, avg_recall=1.0,
                           overall_similarity=0.5)


@pytest.mark.parametrize(
    "k_values", [(4, 6), (6, 4)], ids=["4-6", "6-4"]
)
def test_a_combined_tie_selects_the_smallest_k(
    matrix, k_values, monkeypatch
):
    """On the paper cohort K = 4 and K = 6 both score combined == 1.0;
    the sweep picks the smallest tied K, in whichever order the K
    values are evaluated."""
    computed = []

    def tied(ref, k, *settings):
        computed.append(k)
        return _tied_row(k)

    monkeypatch.setattr(optimizer_module, "_evaluate_k_task", tied)
    optimizer = KMeansOptimizer(k_values=k_values, n_folds=2)
    report = optimizer.optimize(matrix)
    assert computed == list(k_values)
    assert [row.combined for row in report.rows] == [1.0, 1.0]
    assert report.best_k == 4


def test_report_document_roundtrip_requires_failed_k(report):
    document = report.to_document()
    again = OptimizationReport.from_document(document)
    assert again.to_document() == document
    del document["failed_k"]
    with pytest.raises(KeyError):
        OptimizationReport.from_document(document)
