"""Tests for the ADA-HEALTH engine facade."""

import numpy as np
import pytest

from repro.cloud import SerialExecutor
from repro.core import (
    DEFAULT_END_GOALS,
    ADAHealth,
    EngineConfig,
    SimulatedExpert,
)
from repro.core.engine import GOAL_PIPELINES
from repro.exceptions import EndGoalError
from repro.kdb import KnowledgeBase
from repro.obs import Tracer


@pytest.fixture(scope="module")
def engine_and_result(small_log):
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(4, 6),
            partial_fractions=(0.5, 1.0),
            partial_k_values=(4,),
            n_folds=3,
        ),
        seed=0,
    )
    result = engine.analyze(small_log, name="unit-test", user="dr-u")
    return engine, result


def test_all_viable_goals_run(engine_and_result):
    __, result = engine_and_result
    ran = {run.goal.name for run in result.runs}
    viable = {a.goal.name for a in result.assessments if a.viable}
    assert ran == viable


def test_items_ranked_descending(engine_and_result):
    engine, result = engine_and_result
    scores = [engine.ranker.ranking_score(item) for item in result.items]
    assert scores == sorted(scores, reverse=True)


def test_items_have_scores_and_degrees(engine_and_result):
    __, result = engine_and_result
    assert result.items
    for item in result.items:
        assert 0.0 <= item.score <= 1.0
        assert item.degree in ("high", "medium", "low")
        assert item.item_id is not None


def test_segmentation_run_artifacts(engine_and_result):
    __, result = engine_and_result
    run = result.run_for("patient-segmentation")
    assert run.optimization is not None
    assert run.partial is not None
    assert run.optimization.best_k in (4, 6)
    cluster_items = [i for i in run.items if i.kind == "cluster"]
    assert len(cluster_items) == run.optimization.best_k


def test_kdb_populated(engine_and_result):
    engine, result = engine_and_result
    counts = engine.kdb.counts()
    assert counts["raw_datasets"] == 1
    assert counts["descriptors"] == 1
    assert counts["transformed_datasets"] == 1
    assert counts["discovered_knowledge"] == len(result.items)
    assert counts["selected_knowledge"] > 0


def test_run_for_unknown_goal_raises(engine_and_result):
    __, result = engine_and_result
    with pytest.raises(EndGoalError):
        result.run_for("astrology")


def test_top_limits(engine_and_result):
    __, result = engine_and_result
    assert len(result.top(3)) == 3
    assert result.top(3) == result.items[:3]


def test_summary_text(engine_and_result):
    __, result = engine_and_result
    text = result.summary()
    assert "patients" in text
    assert "knowledge items" in text
    assert "patient-segmentation" in text


def test_explicit_goal_selection(small_log):
    engine = ADAHealth(
        config=EngineConfig(min_support=0.2), seed=1
    )
    result = engine.analyze(
        small_log, goals=["co-prescription-patterns"]
    )
    assert {run.goal.name for run in result.runs} == {
        "co-prescription-patterns"
    }
    assert all(item.kind == "itemset" for item in result.items)


def test_pattern_goals_name_the_apriori_miner(small_log):
    """The itemset, rule and generalized goals run the bitset Apriori
    and say so in every item's provenance."""
    expected = {
        "co-prescription-patterns": "apriori",
        "care-pathway-rules": "apriori+rules",
        "exam-category-profiles": "generalized-apriori",
    }
    result = ADAHealth(seed=0).analyze(small_log, goals=list(expected))
    assert {run.goal.name for run in result.runs} == set(expected)
    for run in result.runs:
        assert run.items
        assert {item.provenance["algorithm"] for item in run.items} == {
            expected[run.goal.name]
        }


def test_unknown_goal_request_raises(small_log):
    engine = ADAHealth(seed=0)
    with pytest.raises(EndGoalError):
        engine.analyze(small_log, goals=["astrology"])


def test_max_goals_cap(small_log):
    engine = ADAHealth(
        config=EngineConfig(
            max_goals=2,
            k_values=(4,),
            partial_fractions=(1.0,),
            partial_k_values=(4,),
            n_folds=3,
        ),
        seed=0,
    )
    result = engine.analyze(small_log)
    assert len(result.runs) == 2


def test_feedback_loop_updates_everything(small_log):
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(4,),
            partial_fractions=(1.0,),
            partial_k_values=(4,),
            n_folds=3,
            max_goals=2,
        ),
        seed=0,
    )
    result = engine.analyze(small_log, user="dr-f")
    session = result.navigate(page_size=5)
    expert = SimulatedExpert(seed=2)
    for item in session.page(0):
        session.give_feedback(item, expert.label(item))
    assert engine.kdb.feedback_count("dr-f") == 5
    # Interest model learns from goal-level feedback.
    engine.record_goal_feedback(
        "patient-segmentation", result.profile, True
    )
    assert engine.interest_model.n_interactions == 1


def test_degree_prediction_kicks_in_after_feedback(small_log):
    """With >= 10 feedback entries, degrees come from the K-DB model."""
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(4,),
            partial_fractions=(1.0,),
            partial_k_values=(4,),
            n_folds=3,
        ),
        seed=0,
    )
    first = engine.analyze(small_log, user="dr-g")
    expert = SimulatedExpert(seed=3)
    session = first.navigate(page_size=15)
    for item in session.page(0):
        session.give_feedback(item, expert.label(item))
    assert engine.kdb.feedback_count() >= 10
    second = engine.analyze(small_log, name="again", user="dr-g")
    assert all(item.degree is not None for item in second.items)


def test_engine_with_external_kdb(small_log, tmp_path):
    kdb = KnowledgeBase.open_sharded(tmp_path / "kdb")
    engine = ADAHealth(
        kdb=kdb,
        config=EngineConfig(
            k_values=(4,),
            partial_fractions=(1.0,),
            partial_k_values=(4,),
            n_folds=3,
            max_goals=1,
        ),
        seed=0,
    )
    engine.analyze(small_log)
    kdb.store.close()
    reloaded = KnowledgeBase.open_sharded(tmp_path / "kdb")
    try:
        assert reloaded.counts()["discovered_knowledge"] > 0
    finally:
        reloaded.store.close()


def test_deterministic_given_seed(small_log):
    config = EngineConfig(
        k_values=(4,),
        partial_fractions=(1.0,),
        partial_k_values=(4,),
        n_folds=3,
        max_goals=3,
    )
    a = ADAHealth(config=config, seed=9).analyze(small_log)
    b = ADAHealth(config=config, seed=9).analyze(small_log)
    assert [i.title for i in a.items] == [i.title for i in b.items]
    assert [i.score for i in a.items] == [i.score for i in b.items]


def test_auto_transform_selection(small_log):
    """With auto_transform the engine picks the transformation itself
    and records the choice in the K-DB transformation collection."""
    engine = ADAHealth(
        config=EngineConfig(
            k_values=(4,),
            partial_fractions=(1.0,),
            partial_k_values=(4,),
            n_folds=3,
            auto_transform=True,
        ),
        seed=0,
    )
    result = engine.analyze(small_log, goals=["patient-segmentation"])
    stored = engine.kdb.store["transformed_datasets"].find_one({})
    assert stored["auto_selected"] is True
    assert stored["weighting"] in ("count", "binary", "log", "tfidf")
    run = result.run_for("patient-segmentation")
    assert run.items
    assert run.items[1].provenance["weighting"] == stored["weighting"]


class _RecordingExecutor(SerialExecutor):
    """A serial backend that records the goals in dispatch order."""

    def __init__(self):
        super().__init__()
        self.dispatched = []

    def run(self, tasks):
        self.dispatched = [task.args[0].goal.name for task in tasks]
        return super().run(tasks)


_SMALL_KNOBS = dict(
    k_values=(4, 6),
    partial_fractions=(0.5, 1.0),
    partial_k_values=(4,),
    n_folds=3,
)


def test_goals_dispatch_heaviest_first_and_merge_in_goal_order(
    small_log, monkeypatch
):
    """Tasks go out in the registry's order, segmentation first; runs,
    manifest rows and replayed ``goal`` spans keep the goal order."""
    tracer = Tracer()
    engine = ADAHealth(
        config=EngineConfig(tracer=tracer, **_SMALL_KNOBS), seed=0
    )
    recorder = _RecordingExecutor()
    monkeypatch.setattr(engine, "_goal_executor", lambda name: recorder)
    result = engine.analyze(small_log, name="dispatch")
    goal_order = [run.goal.name for run in result.runs]
    registry = [goal.name for goal in DEFAULT_END_GOALS]
    assert recorder.dispatched == [
        name for name in registry if name in goal_order
    ]
    assert recorder.dispatched[0] == "patient-segmentation"
    assert goal_order[0] != "patient-segmentation"
    manifest = engine.kdb.run_history(limit=1)[0]
    assert [row["name"] for row in manifest["goals"]] == goal_order
    spans = [
        span["attrs"]["goal"]
        for span in tracer.finished()
        if span["name"] == "goal"
    ]
    assert spans == goal_order


def test_raise_mode_raises_the_first_failure_in_goal_order(
    small_log, monkeypatch
):
    """Segmentation is dispatched first and fails, but the goal before
    it in goal order failed too: that failure is the one raised."""
    def sabotaged(context, log, tracer, metrics):
        raise RuntimeError(f"{context.goal.name} failed")

    for name in ("care-sequences", "patient-segmentation"):
        monkeypatch.setitem(GOAL_PIPELINES, name, sabotaged)
    engine = ADAHealth(config=EngineConfig(**_SMALL_KNOBS), seed=0)
    recorder = _RecordingExecutor()
    monkeypatch.setattr(engine, "_goal_executor", lambda name: recorder)
    goals = ["co-prescription-patterns", "care-sequences",
             "patient-segmentation"]
    with pytest.raises(RuntimeError, match="care-sequences failed"):
        engine.analyze(small_log, goals=goals)
    assert recorder.dispatched[0] == "patient-segmentation"
