"""E2 — §IV-B partial-mining experiment (unnumbered result).

Regenerates the paper's incremental horizontal partial-mining series:
K-means on 20 % / 40 % / 100 % of the exam types (chosen in decreasing
frequency order), each result scored with the overall-similarity index,
and the subset selected by the 5 %-difference rule.

Paper shape being reproduced:
  * 20 % of exam types cover ~70 % of the records, 40 % cover ~85 %;
  * for fixed K the overall similarity decreases as exams are removed;
  * the 40 %-of-types (~85 %-of-rows) subset stays within 5 % of the
    full-data similarity and is selected; the 20 % subset is rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HorizontalPartialMiner, VerticalPartialMiner

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper


@pytest.fixture(scope="module")
def result(paper_log):
    miner = HorizontalPartialMiner(
        fractions=(0.2, 0.4, 1.0), k_values=(6, 8, 10), seed=BENCH_SEED
    )
    return miner.mine(paper_log)


def mean_difference(result, fraction):
    return float(
        np.mean(
            [
                run.pct_difference
                for run in result.runs
                if abs(run.fraction_features - fraction) < 1e-9
            ]
        )
    )


def test_partial_mining(result, benchmark, paper_log):
    miner = HorizontalPartialMiner(
        fractions=(0.4, 1.0), k_values=(8,), seed=BENCH_SEED
    )
    benchmark.pedantic(lambda: miner.mine(paper_log), rounds=1, iterations=1)

    print()
    print("SSIV-B — adaptive horizontal partial mining")
    print(result.format_table())
    print(
        f"mean %-difference: 20% of types -> "
        f"{mean_difference(result, 0.2) * 100:.2f}%,"
        f" 40% of types -> {mean_difference(result, 0.4) * 100:.2f}%"
        f" (tolerance 5%)"
    )
    print(
        "paper: 20%/40%/100% of exam types = 70%/85%/100% of rows;"
        " 85% of rows within 5% -> selected"
    )
    benchmark.extra_info["selected_fraction"] = result.selected_fraction
    benchmark.extra_info["mean_diff_20"] = mean_difference(result, 0.2)
    benchmark.extra_info["mean_diff_40"] = mean_difference(result, 0.4)

    # Shape assertions kept inline so --benchmark-only runs verify them.
    assert mean_difference(result, 0.2) > result.tolerance
    assert mean_difference(result, 0.4) <= result.tolerance
    assert result.selected_fraction == pytest.approx(0.4)


def test_row_coverage_matches_paper(result):
    """20% of types ~ 70% of rows; 40% ~ 85% (paper's exact numbers)."""
    by_fraction = {
        run.fraction_features: run.fraction_rows for run in result.runs
    }
    assert by_fraction[0.2] == pytest.approx(0.70, abs=0.04)
    assert by_fraction[0.4] == pytest.approx(0.85, abs=0.04)


def test_similarity_decreases_when_exams_removed(result):
    """Mean over K: smaller subsets lose similarity vs the full data."""
    assert mean_difference(result, 0.2) > mean_difference(result, 0.4)


def test_selection_rule_picks_40_percent(result):
    """20% rejected (> 5% difference), 40% accepted (< 5%) — exactly
    the paper's '85% of raw data yields a percentage difference less
    than 5%'."""
    assert mean_difference(result, 0.2) > result.tolerance
    assert mean_difference(result, 0.4) <= result.tolerance
    assert result.selected_fraction == pytest.approx(0.4)


def test_vertical_partial_mining_also_converges(paper_log):
    """Complementary row-subset miner: a fraction of patients suffices."""
    miner = VerticalPartialMiner(
        fractions=(0.25, 0.5, 1.0), k=8, seed=BENCH_SEED
    )
    result = miner.mine(paper_log)
    print()
    print("vertical partial mining (row subsets)")
    print(result.format_table())
    assert result.selected_fraction <= 1.0
