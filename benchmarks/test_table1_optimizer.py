"""E1 — Table I: optimisation metrics of the K-means K sweep.

Regenerates the paper's Table I: for K in {6,7,8,9,10,12,15,20}, the SSE
of the K-means cluster set plus the 10-fold cross-validated accuracy /
average precision / average recall of the decision-tree robustness
classifier, followed by ADA-HEALTH's automatic K selection.

Paper shape being reproduced:
  * SSE decreases monotonically with K;
  * the classification metrics peak at small K (7-8 in the paper) and
    degrade markedly for large K (paper: precision 52.6, recall 33.4 at
    K = 20);
  * the combined rule selects K = 8.
"""

from __future__ import annotations

import pytest

from repro.core import KMeansOptimizer
from repro.core.optimizer import PAPER_K_VALUES

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

#: The paper's Table I, for side-by-side printing.
PAPER_TABLE_1 = {
    6: (3098.32, 87.79, 90.82, 77.30),
    7: (2805.00, 87.93, 86.93, 78.52),
    8: (2550.00, 90.41, 92.51, 79.72),
    9: (2482.36, 88.75, 71.03, 57.62),
    10: (2205.00, 87.49, 70.53, 51.06),
    12: (2101.60, 85.45, 64.29, 43.80),
    15: (1917.20, 75.18, 75.98, 55.93),
    20: (1534.00, 82.11, 52.59, 33.43),
}


@pytest.fixture(scope="module")
def report(paper_matrix):
    optimizer = KMeansOptimizer(
        k_values=PAPER_K_VALUES, n_folds=10, seed=BENCH_SEED
    )
    return optimizer.optimize(paper_matrix)


def test_table1(report, benchmark, paper_matrix):
    optimizer = KMeansOptimizer(
        k_values=(8,), n_folds=10, seed=BENCH_SEED
    )
    benchmark.pedantic(
        lambda: optimizer.evaluate_k(paper_matrix, 8),
        rounds=1,
        iterations=1,
    )

    print()
    print("TABLE I — optimisation metrics (measured vs paper)")
    header = (
        f"{'K':>4} | {'SSE':>9} {'Acc':>6} {'Prec':>6} {'Rec':>6}"
        f" | {'paper SSE':>9} {'Acc':>6} {'Prec':>6} {'Rec':>6}"
    )
    print(header)
    print("-" * len(header))
    for row in report.rows:
        paper = PAPER_TABLE_1[row.k]
        print(
            f"{row.k:>4} | {row.sse:>9.2f} {row.accuracy * 100:>6.2f}"
            f" {row.avg_precision * 100:>6.2f}"
            f" {row.avg_recall * 100:>6.2f}"
            f" | {paper[0]:>9.2f} {paper[1]:>6.2f} {paper[2]:>6.2f}"
            f" {paper[3]:>6.2f}"
        )
    print(f"measured selection: K = {report.best_k}   (paper: K = 8)")
    print(f"SSE plateau (paper: 'good values for K' band): "
          f"{report.sse_plateau}")

    benchmark.extra_info["best_k"] = report.best_k
    benchmark.extra_info["rows"] = [
        row.as_table_row() for row in report.rows
    ]

    # Shape assertions (also checked by the plain tests below, but kept
    # here so a --benchmark-only run still verifies the reproduction).
    sses = [row.sse for row in report.rows]
    assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))
    assert report.best_k in (7, 8, 9)


def test_table1_sse_monotone(report):
    sses = [row.sse for row in report.rows]
    assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))


def test_table1_quality_peaks_small_k(report):
    """Classification metrics best at K in 6..10, clearly worse at 20."""
    by_k = {row.k: row for row in report.rows}
    peak = max(row.combined for row in report.rows)
    assert max(by_k[k].combined for k in (6, 7, 8, 9, 10)) == peak
    assert by_k[20].combined < peak - 0.05


def test_table1_selects_k8(report):
    """The combined rule lands on the paper's K = 8 (+-1 tolerated for
    a different dataset realisation, but the shape must hold)."""
    assert report.best_k in (7, 8, 9)
