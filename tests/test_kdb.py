"""Tests for the Knowledge Base (six-collection data model)."""

import numpy as np
import pytest

from repro.core import KnowledgeItem, SimulatedExpert
from repro.exceptions import EngineError
from repro.kdb import COLLECTIONS, KnowledgeBase
from repro.preprocess import characterize_log


@pytest.fixture()
def kdb():
    return KnowledgeBase()


def make_item(kind="cluster", score=0.5, **quality):
    item = KnowledgeItem(
        kind=kind,
        end_goal="patient-segmentation",
        title=f"{kind} item",
        quality=quality,
    )
    item.score = score
    return item


def test_six_collections_exist(kdb):
    assert set(COLLECTIONS) <= set(kdb.store.collection_names())
    assert len(COLLECTIONS) == 6


def test_register_dataset_summary(kdb, tiny_log):
    dataset_id = kdb.register_dataset(tiny_log, "tiny")
    summary = kdb.dataset_summary(dataset_id)
    assert summary["name"] == "tiny"
    assert summary["summary"]["n_patients"] == tiny_log.n_patients
    assert "records" not in summary


def test_register_dataset_with_records(kdb, handmade_log):
    dataset_id = kdb.register_dataset(
        handmade_log, "handmade", store_records=True
    )
    stored = kdb.dataset_summary(dataset_id)
    assert len(stored["records"]) == 7


def test_store_and_fetch_profile(kdb, tiny_log):
    dataset_id = kdb.register_dataset(tiny_log, "tiny")
    profile = characterize_log(tiny_log)
    kdb.store_profile(dataset_id, profile.to_document())
    fetched = kdb.profile_for(dataset_id)
    assert fetched["sparsity"] == pytest.approx(profile.sparsity)


def test_profile_for_returns_latest(kdb, tiny_log):
    dataset_id = kdb.register_dataset(tiny_log, "tiny")
    kdb.store_profile(dataset_id, {"version": 1})
    kdb.store_profile(dataset_id, {"version": 2})
    assert kdb.profile_for(dataset_id)["version"] == 2


def test_profile_for_missing_dataset(kdb):
    assert kdb.profile_for(999) is None


def test_store_transformation(kdb, tiny_log):
    dataset_id = kdb.register_dataset(tiny_log, "tiny")
    kdb.store_transformation(dataset_id, {"weighting": "binary"})
    assert kdb.counts()["transformed_datasets"] == 1


def test_store_item_assigns_id(kdb):
    item = make_item()
    kdb.store_item(item)
    assert item.item_id is not None
    loaded = kdb.items({"_id": item.item_id})
    assert len(loaded) == 1
    assert loaded[0].title == item.title


def test_items_query_by_end_goal(kdb):
    kdb.store_items([make_item("cluster"), make_item("itemset")])
    found = kdb.items({"kind": "itemset"})
    assert len(found) == 1
    assert found[0].kind == "itemset"


def test_select_item_requires_stored(kdb):
    with pytest.raises(EngineError):
        kdb.select_item(make_item(), rank=0)


def test_select_item_records_rank(kdb):
    item = kdb.store_item(make_item())
    kdb.select_item(item, rank=3)
    selected = kdb.store["selected_knowledge"].find_one({})
    assert selected["item_id"] == item.item_id
    assert selected["rank"] == 3


def test_feedback_updates_item_degree(kdb):
    item = kdb.store_item(make_item())
    kdb.record_feedback(item, "dr-a", "high")
    reloaded = kdb.items({"_id": item.item_id})[0]
    assert reloaded.degree == "high"
    assert kdb.feedback_count() == 1
    assert kdb.feedback_count("dr-a") == 1
    assert kdb.feedback_count("dr-b") == 0


def test_feedback_validation(kdb):
    item = kdb.store_item(make_item())
    with pytest.raises(EngineError):
        kdb.record_feedback(item, "dr-a", "amazing")
    with pytest.raises(EngineError):
        kdb.record_feedback(make_item(), "dr-a", "high")


def test_training_data_shape(kdb):
    for i in range(6):
        item = kdb.store_item(make_item(score=i / 6))
        kdb.record_feedback(item, "dr-a", "high" if i >= 3 else "low")
    rows, labels, names = kdb.training_data()
    assert rows.shape == (6, len(names))
    assert sorted(set(labels)) == ["high", "low"]


def test_training_data_empty_raises(kdb):
    with pytest.raises(EngineError):
        kdb.training_data()


def test_degree_predictor_learns_expert(kdb):
    """Predictor recovers a threshold-on-score expert from feedback."""
    expert = SimulatedExpert(seed=1)
    items = []
    for i in range(40):
        item = make_item(
            kind="cluster" if i % 2 else "itemset",
            score=(i % 10) / 10.0,
        )
        kdb.store_item(item)
        kdb.record_feedback(item, "dr-a", expert.label(item))
        items.append(item)
    predictor = kdb.train_degree_predictor()
    degrees = predictor.predict_many(items)
    # sanity: predictions are valid degrees and correlate with score
    assert set(degrees) <= {"high", "medium", "low"}
    high_scores = [i.score for i, d in zip(items, degrees) if d == "high"]
    low_scores = [i.score for i, d in zip(items, degrees) if d == "low"]
    if high_scores and low_scores:
        assert min(high_scores) > max(low_scores) - 0.3


def test_predictor_attach(kdb):
    for i in range(10):
        item = kdb.store_item(make_item(score=i / 10))
        kdb.record_feedback(item, "u", "high" if i >= 5 else "low")
    predictor = kdb.train_degree_predictor()
    fresh = [make_item(score=0.9), make_item(score=0.1)]
    predictor.predict_many(fresh, attach=True)
    assert fresh[0].degree is not None


def test_predict_many_matches_one_row_predictions(kdb):
    """One batched ``tree.predict`` equals one tree call per item."""
    expert = SimulatedExpert(seed=3)
    for i in range(30):
        kind = "cluster" if i % 3 else "association_rule"
        item = kdb.store_item(make_item(kind=kind, score=i / 30))
        kdb.record_feedback(item, "dr-a", expert.label(item))
    predictor = kdb.train_degree_predictor()
    fresh = [
        make_item(kind=kind, score=score / 20)
        for kind in ("cluster", "association_rule", "itemset")
        for score in range(20)
    ]

    def one_row(item):
        features = item.feature_vector_fields()
        row = np.array(
            [[features.get(name, 0.0) for name in predictor.feature_names]]
        )
        return str(predictor.tree.predict(row)[0])

    expected = [one_row(item) for item in fresh]
    assert predictor.predict_many(fresh) == expected
    assert [predictor.predict(item) for item in fresh] == expected
    assert len(set(expected)) > 1
    assert predictor.predict_many([]) == []
    assert predictor.predict_many([], attach=True) == []


def test_save_load_roundtrip(tiny_log, tmp_path):
    kdb = KnowledgeBase.open_sharded(tmp_path / "kdb")
    dataset_id = kdb.register_dataset(tiny_log, "tiny")
    item = kdb.store_item(make_item(), dataset_id)
    kdb.record_feedback(item, "dr-a", "medium")
    counts = kdb.counts()
    kdb.store.close()
    loaded = KnowledgeBase.open_sharded(tmp_path / "kdb")
    try:
        assert loaded.counts() == counts
        assert loaded.feedback_count() == 1
    finally:
        loaded.store.close()


def test_counts_keys(kdb):
    assert set(kdb.counts()) == set(COLLECTIONS)
