"""E8 — ablation: VSM weighting x scaling vs clustering quality.

The paper poses transform selection as an open research issue ("define a
totally automatic strategy to select the optimal data transformation,
which yields higher quality knowledge"). This benchmark quantifies the
choice on the full dataset: every (weighting, scaling) combination is
clustered and scored with the overall-similarity index and against the
generator's planted complication profiles (purity), and the automatic
selector's pick is reported.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import profile_labels
from repro.mining import KMeans, overall_similarity, purity
from repro.preprocess import (
    TransformSelector,
    VSMBuilder,
    make_transform,
)

from conftest import BENCH_SEED

pytestmark = pytest.mark.paper

COMBINATIONS = (
    ("count", "identity"),
    ("count", "l2"),
    ("binary", "identity"),
    ("binary", "l2"),
    ("log", "l2"),
    ("tfidf", "l2"),
)


@pytest.fixture(scope="module")
def truth(paper_log):
    return profile_labels(paper_log)


def evaluate(paper_log, weighting, scaling, truth):
    vsm = VSMBuilder(weighting).build(paper_log)
    matrix = make_transform(scaling).fit_transform(vsm.matrix)
    labels = KMeans(8, seed=BENCH_SEED, n_init=2).fit_predict(matrix)
    return (
        float(overall_similarity(matrix, labels)),
        float(purity(truth, labels)),
    )


def test_transform_ablation(paper_log, truth, benchmark):
    rows = []
    for weighting, scaling in COMBINATIONS:
        similarity, pure = evaluate(paper_log, weighting, scaling, truth)
        rows.append((weighting, scaling, similarity, pure))

    benchmark.pedantic(
        lambda: evaluate(paper_log, "binary", "l2", truth),
        rounds=1,
        iterations=1,
    )
    print()
    print("E8 — weighting x scaling -> K=8 clustering quality")
    print(f"{'weighting':>10} {'scaling':>9} {'overall sim':>12}"
          f" {'profile purity':>15}")
    for weighting, scaling, similarity, pure in rows:
        print(
            f"{weighting:>10} {scaling:>9} {similarity:>12.4f}"
            f" {pure:>15.3f}"
        )
    benchmark.extra_info["rows"] = rows


def test_presence_weighting_recovers_profiles_best(paper_log, truth):
    """Binary+L2 beats raw counts on planted-profile purity: magnitude
    noise from routine care hides the complication structure."""
    __, purity_binary = evaluate(paper_log, "binary", "l2", truth)
    __, purity_count = evaluate(paper_log, "count", "identity", truth)
    assert purity_binary > purity_count


def test_selector_picks_a_top_candidate(paper_log):
    """The automatic selector's choice is within the top half of the
    candidate field by its own pilot metric."""
    selector = TransformSelector(
        pilot_size=800, pilot_clusters=8, seed=BENCH_SEED
    )
    selection = selector.select(paper_log)
    print()
    print("automatic transform selection (pilot scores):")
    print(selection.report())
    scores = sorted(
        (c.score for c in selection.candidates), reverse=True
    )
    midpoint = scores[len(scores) // 2]
    assert selection.best.score >= midpoint
