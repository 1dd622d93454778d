"""Integration tests: cross-module pipelines at small scale.

These exercise the same pipelines as the paper's experiments (the
full-size runs live in ``benchmarks/``), asserting the *shape* of each
result: SSE monotone in K, classification quality degrading for large K,
the partial-mining selection logic, and the closed feedback loop.
"""

import numpy as np
import pytest

from repro.core import (
    ADAHealth,
    EngineConfig,
    HorizontalPartialMiner,
    KMeansOptimizer,
    SimulatedExpert,
    clinician_profile,
)
from repro.data import profile_labels, small_dataset
from repro.kdb import KnowledgeBase
from repro.mining import KMeans, adjusted_rand_index, purity
from repro.preprocess import L2Normalizer, TransformSelector, VSMBuilder


@pytest.fixture(scope="module")
def log():
    return small_dataset(
        n_patients=500, n_exam_types=60, target_records=8000, seed=21
    )


@pytest.fixture(scope="module")
def matrix(log):
    vsm = VSMBuilder("binary").build(log)
    return L2Normalizer().transform(vsm.matrix)


def test_clustering_recovers_planted_structure(log, matrix):
    """K-means on the VSM finds the complication sub-populations."""
    truth = profile_labels(log)
    labels = KMeans(8, seed=0, n_init=4).fit_predict(matrix)
    assert purity(truth, labels) > 0.55
    assert adjusted_rand_index(truth, labels) > 0.05


def test_table1_shape_small_scale(matrix):
    """SSE decreases with K; quality degrades at large K; the winner is
    a small-to-moderate K (the Table I shape)."""
    optimizer = KMeansOptimizer(
        k_values=(4, 6, 8, 16, 24), n_folds=4, seed=0,
        kmeans_params={"n_init": 2},
    )
    report = optimizer.optimize(matrix)
    sses = [row.sse for row in report.rows]
    assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))
    by_k = {row.k: row for row in report.rows}
    assert by_k[24].combined < max(
        by_k[4].combined, by_k[6].combined, by_k[8].combined
    )
    assert report.best_k <= 16


def test_partial_mining_shape_small_scale(log):
    """Subsets lose similarity; the full reference has zero difference;
    row coverage grows superlinearly in the type fraction."""
    miner = HorizontalPartialMiner(
        fractions=(0.2, 0.4, 1.0), k_values=(6, 8), seed=0
    )
    result = miner.mine(log)
    for fraction in (0.2, 0.4):
        runs = [
            r for r in result.runs if r.fraction_features == fraction
        ]
        # Coverage concentration: e.g. 20% of types >> 20% of rows.
        assert all(r.fraction_rows > 2 * fraction for r in runs)
    diff20 = np.mean(
        [r.pct_difference for r in result.runs
         if r.fraction_features == 0.2]
    )
    diff40 = np.mean(
        [r.pct_difference for r in result.runs
         if r.fraction_features == 0.4]
    )
    assert diff40 <= diff20 + 0.02


def test_transform_selection_feeds_clustering(log):
    """Auto-selected transform clusters at least as well as raw counts."""
    selection = TransformSelector(
        pilot_size=200, pilot_clusters=6, seed=0
    ).select(log)
    assert selection.transformed.shape[0] == log.n_patients
    assert selection.best.score >= min(
        c.score for c in selection.candidates
    )


def test_full_loop_two_sessions_learning(log):
    """Session 1 -> expert feedback -> session 2 uses learned models."""
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(4, 6),
            partial_fractions=(0.4, 1.0),
            partial_k_values=(4,),
            n_folds=3,
        ),
        seed=0,
    )
    expert = SimulatedExpert(clinician_profile(), seed=1)

    first = engine.analyze(log, name="visit-1", user="dr-i")
    session = first.navigate(page_size=12)
    for item in session.page(0):
        session.give_feedback(item, expert.label(item))
    for run in first.runs:
        liked = any(item.degree == "high" for item in run.items)
        engine.record_goal_feedback(run.goal.name, first.profile, liked)

    second = engine.analyze(log, name="visit-2", user="dr-i")
    # Degrees in session 2 come from the trained K-DB predictor.
    assert engine.kdb.feedback_count() >= 10
    assert all(item.degree is not None for item in second.items)
    # The K-DB accumulated both sessions.
    assert engine.kdb.counts()["raw_datasets"] == 2
    assert engine.interest_model.n_interactions == len(first.runs)


def test_kdb_persistence_across_engines(log, tmp_path):
    """A K-DB written by one engine continues learning in another."""
    config = EngineConfig(
        k_values=(4,),
        partial_fractions=(1.0,),
        partial_k_values=(4,),
        n_folds=3,
        max_goals=2,
    )
    kdb = KnowledgeBase.open_sharded(tmp_path / "kdb")
    first_engine = ADAHealth(kdb=kdb, config=config, seed=0)
    result = first_engine.analyze(log, user="dr-p")
    session = result.navigate(page_size=6)
    expert = SimulatedExpert(seed=4)
    for item in session.page(0):
        session.give_feedback(item, expert.label(item))
    kdb.store.close()

    reopened = KnowledgeBase.open_sharded(tmp_path / "kdb")
    try:
        second_engine = ADAHealth(kdb=reopened, config=config, seed=0)
        assert second_engine.kdb.feedback_count("dr-p") == 6
        again = second_engine.analyze(log, name="second")
        assert again.items
    finally:
        reopened.store.close()


def test_ranker_adaptation_changes_order(log):
    """Consistent negative feedback on a kind demotes that kind."""
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(4,),
            partial_fractions=(1.0,),
            partial_k_values=(4,),
            n_folds=3,
        ),
        seed=0,
    )
    result = engine.analyze(log, user="dr-r")
    session = result.navigate(page_size=10)
    first_page_kinds = [item.kind for item in session.page(0)]
    target_kind = first_page_kinds[0]
    for item in [i for i in result.items if i.kind == target_kind][:6]:
        session.give_feedback(item, "low")
    new_first = session.page(0)
    demoted_share = sum(
        1 for item in new_first if item.kind == target_kind
    )
    original_share = sum(
        1 for kind in first_page_kinds if kind == target_kind
    )
    assert demoted_share <= original_share
