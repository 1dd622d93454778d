"""E9 — ablation: the optimiser's robustness classifier.

The paper used decision trees "in our first implementation", leaving
the robustness model pluggable. This benchmark swaps the classifier in
the Table I machinery — decision tree vs Gaussian Naive Bayes vs k-NN —
and checks that the *selection* (the chosen K) is stable across models:
the optimiser's verdict should reflect the cluster structure, not the
classifier's idiosyncrasies.
"""

from __future__ import annotations

import time

import pytest

from repro.core import KMeansOptimizer
from repro.mining import GaussianNaiveBayes, KNeighborsClassifier

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

K_VALUES = (6, 8, 10, 15, 20)

FACTORIES = {
    "decision-tree": None,  # optimiser default
    "gaussian-nb": lambda: GaussianNaiveBayes(),
    "knn-5": lambda: KNeighborsClassifier(n_neighbors=5),
}


@pytest.fixture(scope="module")
def reports(paper_matrix):
    # A patient subsample keeps the three full sweeps affordable.
    sample = paper_matrix[::3]
    results = {}
    for name, factory in FACTORIES.items():
        start = time.perf_counter()
        optimizer = KMeansOptimizer(
            k_values=K_VALUES,
            n_folds=5,
            classifier_factory=factory,
            seed=BENCH_SEED,
        )
        results[name] = (
            optimizer.optimize(sample),
            time.perf_counter() - start,
        )
    return results


def test_classifier_ablation(reports, benchmark, paper_matrix):
    sample = paper_matrix[::3]
    benchmark.pedantic(
        lambda: KMeansOptimizer(
            k_values=(8,), n_folds=5,
            classifier_factory=FACTORIES["gaussian-nb"],
            seed=BENCH_SEED,
        ).optimize(sample),
        rounds=1,
        iterations=1,
    )

    print()
    print("E9 — robustness classifier ablation (K sweep on 1/3 sample)")
    print(f"{'classifier':>14} {'best K':>7} {'acc@best':>9}"
          f" {'acc@K=20':>9} {'sweep(s)':>9}")
    for name, (report, seconds) in reports.items():
        by_k = {row.k: row for row in report.rows}
        print(
            f"{name:>14} {report.best_k:>7}"
            f" {by_k[report.best_k].accuracy * 100:>9.2f}"
            f" {by_k[20].accuracy * 100:>9.2f} {seconds:>9.1f}"
        )
    benchmark.extra_info["best_k"] = {
        name: report.best_k for name, (report, __) in reports.items()
    }

    # The selected K must sit in the small-K band for every classifier.
    for name, (report, __) in reports.items():
        assert report.best_k <= 10, name


def test_quality_degrades_at_high_k_for_all(reports):
    for name, (report, __) in reports.items():
        by_k = {row.k: row for row in report.rows}
        peak = max(row.combined for row in report.rows)
        assert by_k[20].combined < peak, name


def test_tree_competitive_with_alternatives(reports):
    """The paper's choice is not an outlier: its best-K accuracy is
    within 10 points of the best alternative."""
    best_accuracy = {
        name: max(row.accuracy for row in report.rows)
        for name, (report, __) in reports.items()
    }
    tree = best_accuracy["decision-tree"]
    assert tree >= max(best_accuracy.values()) - 0.10
