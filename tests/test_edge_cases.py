"""Edge cases across modules: empty, singleton and degenerate inputs."""

import numpy as np
import pytest

from repro.data import ExamLog, ExamRecord, PatientInfo
from repro.data.taxonomy import build_default_taxonomy
from repro.exceptions import MiningError, PreprocessError
from repro.kdb.documentstore import DocumentStore
from repro.kdb.shards import ShardedDocumentStore
from repro.mining import (
    DBSCAN,
    DecisionTreeClassifier,
    KMeans,
    fpgrowth,
    overall_similarity,
    sse,
)
from repro.preprocess import VSMBuilder, characterize_matrix
from tests.flat_store import write_flat_store


# ----------------------------------------------------------------------
# empty / singleton logs
# ----------------------------------------------------------------------
def test_empty_log_summary():
    log = ExamLog([], taxonomy=build_default_taxonomy(10))
    summary = log.summary()
    assert summary["n_patients"] == 0
    assert summary["n_records"] == 0
    assert summary["days_spanned"] == 0
    assert summary["age_min"] is None


def test_empty_log_frequency_and_transactions():
    log = ExamLog([], taxonomy=build_default_taxonomy(10))
    assert log.exam_frequency().sum() == 0
    assert log.transactions() == []
    assert log.exam_codes_by_frequency() == list(range(10))


def test_single_record_log():
    log = ExamLog(
        [ExamRecord(0, 0, 0)],
        taxonomy=build_default_taxonomy(10),
        patients=[PatientInfo(0, 50)],
    )
    matrix, ids = log.count_matrix()
    assert matrix.shape == (1, 10)
    assert matrix[0, 0] == 1.0
    vsm = VSMBuilder("tfidf").build(log)
    assert vsm.matrix.shape == (1, 10)


def test_restrict_to_nothing():
    log = ExamLog(
        [ExamRecord(0, 0, 0)], taxonomy=build_default_taxonomy(10)
    )
    empty = log.restrict_patients([])
    assert empty.n_records == 0


# ----------------------------------------------------------------------
# degenerate matrices
# ----------------------------------------------------------------------
def test_kmeans_on_identical_points():
    data = np.ones((20, 3))
    model = KMeans(2, seed=0, n_init=1).fit(data)
    assert model.inertia_ == pytest.approx(0.0)


def test_kmeans_single_feature():
    data = np.arange(12, dtype=float).reshape(-1, 1)
    model = KMeans(2, seed=0).fit(data)
    # A 1-D split separates low from high values.
    assert model.labels_[0] != model.labels_[-1]


def test_overall_similarity_single_point():
    value = overall_similarity(np.array([[3.0, 4.0]]), np.array([0]))
    assert value == pytest.approx(1.0)


def test_overall_similarity_all_zero_rows():
    value = overall_similarity(np.zeros((4, 3)), np.zeros(4, dtype=int))
    assert value == pytest.approx(0.0)


def test_sse_single_cluster_single_point():
    assert sse(np.array([[1.0, 2.0]]), np.array([0])) == 0.0


def test_characterize_single_cell():
    profile = characterize_matrix(np.array([[5.0]]))
    assert profile.sparsity == 0.0
    assert profile.hhi == pytest.approx(1.0)


def test_tree_on_single_sample():
    tree = DecisionTreeClassifier().fit(np.array([[1.0, 2.0]]), [7])
    assert tree.predict(np.array([[9.0, 9.0]]))[0] == 7


def test_dbscan_single_point():
    model = DBSCAN(eps=1.0, min_samples=1).fit(np.array([[0.0, 0.0]]))
    assert model.labels_.tolist() == [0]
    model2 = DBSCAN(eps=1.0, min_samples=2).fit(np.array([[0.0, 0.0]]))
    assert model2.labels_.tolist() == [-1]


# ----------------------------------------------------------------------
# store edge cases
# ----------------------------------------------------------------------
def test_empty_collection_queries():
    collection = DocumentStore()["c"]
    assert collection.find().to_list() == []
    assert collection.find_one({}) is None
    assert collection.count_documents() == 0
    assert collection.delete_many() == 0
    assert collection.aggregate([{"$group": {"_id": "$x"}}]) == []


def test_cursor_pagination_beyond_end():
    collection = DocumentStore()["c"]
    collection.insert_many([{"v": i} for i in range(3)])
    assert len(collection.find().limit(100)) == 3
    assert collection.find().limit(0).to_list() == []


def test_update_on_empty_store():
    collection = DocumentStore()["c"]
    assert collection.update_one({}, {"$set": {"x": 1}}) == 0


def test_save_empty_store(tmp_path):
    store = DocumentStore()
    store["empty"]
    write_flat_store(store, tmp_path / "db")
    with ShardedDocumentStore(tmp_path / "db") as loaded:
        assert loaded.collection_names() == ["empty"]
        assert len(loaded["empty"]) == 0
    with ShardedDocumentStore(tmp_path / "db") as reopened:
        assert reopened.collection_names() == ["empty"]


# ----------------------------------------------------------------------
# pattern mining edge cases
# ----------------------------------------------------------------------
def test_fpgrowth_all_empty_transactions():
    itemsets = fpgrowth([[], [], []], 0.5)
    assert itemsets == []


def test_fpgrowth_single_item_universe():
    itemsets = fpgrowth([["a"]] * 5, 0.5)
    assert len(itemsets) == 1
    assert itemsets[0].support == 1.0


def test_vsm_empty_subset_raises(handmade_log):
    with pytest.raises(PreprocessError):
        VSMBuilder("count", exam_codes=[-1]).build(handmade_log)


def test_engine_rejects_microscopic_cohort():
    """A 5-patient log passes no clustering feasibility rule."""
    from repro.core import ADAHealth
    from repro.data import small_dataset

    log = small_dataset(
        n_patients=5, n_exam_types=20, target_records=60, seed=0
    )
    engine = ADAHealth(seed=0)
    result = engine.analyze(log)
    ran = {run.goal.name for run in result.runs}
    assert "patient-segmentation" not in ran
    assert "outlier-screening" not in ran
