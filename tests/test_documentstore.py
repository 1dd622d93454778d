"""Tests for the embedded document store: CRUD, cursors, persistence."""

import pytest

from repro.exceptions import (
    CollectionNotFoundError,
    DuplicateKeyError,
    QueryError,
    StoreError,
)
from repro.kdb.documentstore import DocumentStore
from repro.kdb.shards import ShardedDocumentStore
from tests.flat_store import write_flat_store


@pytest.fixture()
def store():
    return DocumentStore()


@pytest.fixture()
def people(store):
    collection = store["people"]
    collection.insert_many(
        [
            {"name": "ada", "age": 36, "tags": ["math", "code"]},
            {"name": "grace", "age": 85, "tags": ["code", "navy"]},
            {"name": "alan", "age": 41, "tags": ["math"]},
            {"name": "edsger", "age": 72, "tags": []},
        ]
    )
    return collection


# ----------------------------------------------------------------------
# insert
# ----------------------------------------------------------------------
def test_insert_assigns_sequential_ids(store):
    collection = store["c"]
    ids = collection.insert_many([{"x": 1}, {"x": 2}, {"x": 3}])
    assert ids == [1, 2, 3]


def test_insert_respects_explicit_id(store):
    collection = store["c"]
    assert collection.insert_one({"_id": "custom", "x": 1}) == "custom"
    assert collection.find_one({"_id": "custom"})["x"] == 1


def test_insert_duplicate_id_raises(store):
    collection = store["c"]
    collection.insert_one({"_id": 7})
    with pytest.raises(DuplicateKeyError):
        collection.insert_one({"_id": 7})


def test_insert_skips_taken_auto_id(store):
    collection = store["c"]
    collection.insert_one({"_id": 1})
    new_id = collection.insert_one({"x": 2})
    assert new_id != 1
    assert len(collection) == 2


def test_insert_non_dict_raises(store):
    with pytest.raises(StoreError):
        store["c"].insert_one(["not", "a", "dict"])


def test_insert_unserialisable_raises(store):
    with pytest.raises(StoreError):
        store["c"].insert_one({"bad": object()})


def test_insert_copies_document(store):
    collection = store["c"]
    original = {"nested": {"x": 1}}
    collection.insert_one(original)
    original["nested"]["x"] = 999
    stored = collection.find_one({})
    assert stored["nested"]["x"] == 1


def test_find_returns_copies(store):
    collection = store["c"]
    collection.insert_one({"nested": {"x": 1}})
    fetched = collection.find_one({})
    fetched["nested"]["x"] = 999
    assert collection.find_one({})["nested"]["x"] == 1


def _scramble(value):
    """Empty every container reachable from ``value``."""
    children = value.values() if isinstance(value, dict) else value
    for child in list(children):
        if isinstance(child, (dict, list)):
            _scramble(child)
    value.clear()


def test_every_read_and_write_path_is_independent_of_the_store(store):
    collection = store["c"]
    collection.insert_one({"_id": 1, "nested": {"xs": [1, 2]}, "k": "a"})
    operand = {"deep": [3]}
    collection.update_one({"_id": 1}, {"$set": {"s": operand, "t.u": operand}})
    operand["deep"].append(99)
    reads = [
        collection.find_one({}),
        collection.find({}).to_list()[0],
        collection.aggregate([{"$sort": {"_id": 1}}])[0],
        collection.aggregate([{"$group": {"_id": "$nested"}}])[0],
    ]
    for read in reads:
        _scramble(read)
    stored = collection.find_one({})
    assert stored["nested"] == {"xs": [1, 2]}
    assert stored["s"] == {"deep": [3]} and stored["t"] == {"u": {"deep": [3]}}


def test_copies_keep_aliasing_inside_a_document(store):
    collection = store["c"]
    shared = {"x": [1]}
    collection.insert_one({"_id": 1, "a": shared, "b": shared})
    fetched = collection.find_one({})
    assert fetched["a"] is fetched["b"]
    assert fetched["a"] is not shared


def test_lambda_field_raises_store_error(store):
    collection = store["c"]
    with pytest.raises(StoreError):
        collection.insert_one({"f": lambda: 1})
    collection.insert_one({"_id": 1})
    with pytest.raises(StoreError):
        collection.update_one({"_id": 1}, {"$set": {"f": lambda: 1}})
    assert collection.find_one({}) == {"_id": 1}


# ----------------------------------------------------------------------
# find / count / distinct
# ----------------------------------------------------------------------
def test_find_all(people):
    assert len(people.find()) == 4


def test_find_implicit_equality(people):
    assert people.find_one({"name": "ada"})["age"] == 36


def test_equality_matches_array_element(people):
    names = sorted(d["name"] for d in people.find({"tags": "math"}))
    assert names == ["ada", "alan"]


def test_count_documents(people):
    assert people.count_documents({"tags": "code"}) == 2
    assert people.count_documents() == 4


def test_find_missing_field_no_match(people):
    assert people.count_documents({"height": 180}) == 0


def test_bool_int_equality_separated(store):
    collection = store["c"]
    collection.insert_many([{"flag": True}, {"flag": 1}])
    assert collection.count_documents({"flag": True}) == 1
    assert collection.count_documents({"flag": 1}) == 1


# ----------------------------------------------------------------------
# cursors
# ----------------------------------------------------------------------
def test_sort_ascending_descending(people):
    ascending = [d["age"] for d in people.find().sort("age")]
    assert ascending == sorted(ascending)
    descending = [d["age"] for d in people.find().sort("age", -1)]
    assert descending == sorted(descending, reverse=True)


def test_sort_multiple_keys(store):
    """A cursor sorts by one dot path; a list of keys is refused."""
    collection = store["c"]
    collection.insert_many([{"a": 1, "b": 2}, {"a": 0, "b": 9}])
    with pytest.raises(QueryError):
        collection.find().sort([("a", 1), ("b", 1)])
    with pytest.raises(QueryError):
        collection.find().sort("a", 0)
    assert [d["a"] for d in collection.find().sort("a")] == [0, 1]


def test_negative_skip_limit_raise(people):
    with pytest.raises(QueryError):
        people.find().limit(-5)
    with pytest.raises(QueryError):
        people.find().limit("2")


def test_missing_sort_key_sorts_first(store):
    collection = store["c"]
    collection.insert_many([{"v": 2}, {}, {"v": 1}])
    values = [d.get("v") for d in collection.find().sort("v")]
    assert values == [None, 1, 2]


# ----------------------------------------------------------------------
# update
# ----------------------------------------------------------------------
def test_update_one_set(people):
    updated = people.update_one({"name": "ada"}, {"$set": {"age": 37}})
    assert updated == 1
    assert people.find_one({"name": "ada"})["age"] == 37


def test_update_set_deep_path_creates_dicts(store):
    collection = store["c"]
    collection.insert_one({"x": 1})
    collection.update_one({"x": 1}, {"$set": {"a.b.c": 5}})
    assert collection.find_one({})["a"]["b"]["c"] == 5


def test_update_unset(people):
    """$unset is outside the store's surface: refused, nothing changes."""
    with pytest.raises(StoreError):
        people.update_one({"name": "ada"}, {"$unset": {"age": ""}})
    assert people.find_one({"name": "ada"})["age"] == 36


def test_update_push_and_add_to_set(people):
    """Array updates are outside the store's surface; a $set of the
    whole list is how a document's array changes."""
    for operator in ("$push", "$addToSet"):
        with pytest.raises(StoreError):
            people.update_one({"name": "alan"}, {operator: {"tags": "logic"}})
    tags = people.find_one({"name": "alan"})["tags"]
    people.update_one({"name": "alan"}, {"$set": {"tags": tags + ["logic"]}})
    assert people.find_one({"name": "alan"})["tags"] == ["math", "logic"]


def test_update_pull(people):
    with pytest.raises(StoreError):
        people.update_one({"name": "ada"}, {"$pull": {"tags": "math"}})
    assert people.find_one({"name": "ada"})["tags"] == ["math", "code"]


def test_update_inc_non_numeric_raises(people):
    with pytest.raises(StoreError):
        people.update_one({"name": "ada"}, {"$inc": {"age": 1}})
    assert people.find_one({"name": "ada"})["age"] == 36


def test_update_requires_operators(people):
    for update in ({"age": 1}, {}, {"$set": {"age": 1}, "$inc": {"n": 1}}):
        with pytest.raises(StoreError):
            people.update_one({"name": "ada"}, update)
    with pytest.raises(StoreError):
        people.update_one({"name": "ada"}, {"$set": [("age", 1)]})
    assert people.find_one({"name": "ada"})["age"] == 36


def test_update_unknown_operator_raises(people):
    with pytest.raises(StoreError):
        people.update_one({"name": "ada"}, {"$flip": {"age": 1}})


def test_update_cannot_change_id(people):
    with pytest.raises(StoreError):
        people.update_one({"name": "ada"}, {"$set": {"_id": 99}})


def test_update_zero_matches(people):
    assert people.update_one({"name": "x"}, {"$set": {"age": 1}}) == 0


# ----------------------------------------------------------------------
# delete
# ----------------------------------------------------------------------
def test_delete_one(people):
    assert people.delete_one({"name": "ada"}) == 1
    assert people.count_documents() == 3


@pytest.mark.parametrize("indexed", [False, True])
def test_update_and_delete_one_take_the_first_match_in_insertion_order(
    store, indexed
):
    collection = store["c"]
    # Ids out of order, and the first match re-inserted last: the
    # first match is by insertion, not by id or hash bucket.
    collection.insert_many(
        [{"_id": 9, "t": "x"}, {"_id": 2, "t": "x"}, {"_id": 5, "t": "y"}]
    )
    collection.delete_one({"_id": 9})
    collection.insert_one({"_id": 9, "t": "x"})
    collection.insert_one({"_id": 1, "t": "x"})
    if indexed:
        collection.create_index("t")
    assert collection.update_one({"t": "x"}, {"$set": {"hit": 1}}) == 1
    assert collection.last_plan.kind == ("point" if indexed else "scan")
    assert [doc["_id"] for doc in collection.find({"hit": 1})] == [2]
    assert collection.delete_one({"t": "x"}) == 1
    assert [doc["_id"] for doc in collection.find({"t": "x"})] == [9, 1]
    assert collection.delete_many({"t": "x"}) == 2
    assert [doc["_id"] for doc in collection.find()] == [5]


def test_update_and_delete_by_id_probe_one_document(people):
    target = people.find_one({"name": "alan"})["_id"]
    assert people.update_one({"_id": target}, {"$set": {"age": 42}}) == 1
    assert people.last_plan.kind == "point"
    assert people.last_plan.examined == 1
    assert people.find_one({"_id": target})["age"] == 42
    assert people.delete_one({"_id": target}) == 1
    assert people.last_plan.examined == 1
    assert people.update_one({"_id": target}, {"$set": {"age": 1}}) == 0
    assert people.last_plan.examined == 0


def test_delete_many_with_query(people):
    assert people.delete_many({"tags": "math"}) == 2
    assert people.count_documents() == 2


def test_delete_many_all(people):
    assert people.delete_many() == 4
    assert len(people) == 0


# ----------------------------------------------------------------------
# indexes
# ----------------------------------------------------------------------
def test_index_accelerated_find_equivalent(people):
    before = sorted(d["name"] for d in people.find({"name": "ada"}))
    people.create_index("name")
    after = sorted(d["name"] for d in people.find({"name": "ada"}))
    assert before == after
    assert "name_1" in people.index_names()


def test_index_stays_consistent_after_updates(people):
    people.create_index("name")
    people.update_one({"name": "ada"}, {"$set": {"name": "ada lovelace"}})
    assert people.find_one({"name": "ada"}) is None
    assert people.find_one({"name": "ada lovelace"}) is not None


def test_index_stays_consistent_after_delete(people):
    people.create_index("name")
    people.delete_one({"name": "ada"})
    assert people.find_one({"name": "ada"}) is None


def test_unique_index_blocks_duplicates(store):
    collection = store["c"]
    collection.create_index("email", unique=True)
    collection.insert_one({"email": "x@y.z"})
    with pytest.raises(DuplicateKeyError):
        collection.insert_one({"email": "x@y.z"})


def test_unique_index_on_existing_duplicates_fails(store):
    collection = store["c"]
    collection.insert_many([{"v": 1}, {"v": 1}])
    with pytest.raises(DuplicateKeyError):
        collection.create_index("v", unique=True)
    assert "v_1" not in collection.index_names()


# ----------------------------------------------------------------------
# store-level operations
# ----------------------------------------------------------------------
def test_existing_collection_raises_when_absent(store):
    with pytest.raises(CollectionNotFoundError):
        store.existing("ghost")


def test_collection_names_sorted(store):
    store["b"]
    store["a"]
    assert store.collection_names() == ["a", "b"]


def test_drop_collection(store):
    store["temp"].insert_one({"x": 1})
    store.drop_collection("temp")
    assert "temp" not in store.collection_names()


def test_collection_drop_empties_but_keeps_indexes(people):
    people.create_index("name")
    people.drop()
    assert len(people) == 0
    assert "name_1" in people.index_names()
    people.insert_one({"name": "new"})
    assert people.find_one({"name": "new"}) is not None


# ----------------------------------------------------------------------
# persistence: a flat save() directory migrates to framed shards
# ----------------------------------------------------------------------
def test_save_load_roundtrip(people, store, tmp_path):
    people.create_index("name")
    write_flat_store(store, tmp_path / "db")
    with ShardedDocumentStore(tmp_path / "db") as loaded:
        assert len(loaded["people"]) == 4
        assert loaded["people"].find_one({"name": "ada"})["age"] == 36
        assert "name_1" in loaded["people"].index_names()
    assert not (tmp_path / "db" / "_manifest.json").exists()
    assert not (tmp_path / "db" / "people.jsonl").exists()
    with ShardedDocumentStore(tmp_path / "db") as reopened:
        assert reopened["people"].find_one({"name": "ada"})["age"] == 36
        assert "name_1" in reopened["people"].index_names()


def test_load_missing_manifest_raises(tmp_path):
    with ShardedDocumentStore(tmp_path / "db") as store:
        store["c"].insert_one({"x": 1})
        store.compact()
    (tmp_path / "db" / "_shards.json").unlink()
    # shard files without their manifest: refuse, never start empty
    with pytest.raises(StoreError, match="neither _shards.json"):
        ShardedDocumentStore(tmp_path / "db")
    assert not (tmp_path / "db" / "_shards.json").exists()


def test_save_load_preserves_unique_flag(store, tmp_path):
    collection = store["c"]
    collection.create_index("email", unique=True)
    collection.insert_one({"email": "a@b.c"})
    write_flat_store(store, tmp_path / "db")
    with ShardedDocumentStore(tmp_path / "db") as loaded:
        with pytest.raises(DuplicateKeyError):
            loaded["c"].insert_one({"email": "a@b.c"})


# ----------------------------------------------------------------------
# cursor sorting over unorderable values + memoisation
# ----------------------------------------------------------------------
def test_sort_unorderable_same_type_values_no_typeerror(store):
    collection = store["mixed"]
    collection.insert_many(
        [
            {"v": {"b": 1}},
            {"v": [2, 1]},
            {"v": {"a": 1}},
            {"v": 5},
            {"v": "s"},
            {"v": None},
        ]
    )
    documents = collection.find().sort("v").to_list()  # must not raise
    assert len(documents) == 6
    assert documents[0]["v"] is None  # None still sorts first
    # Deterministic: re-sorting yields the identical order.
    assert collection.find().sort("v").to_list() == documents


def test_sort_dicts_fall_back_to_repr_order(store):
    collection = store["dicts"]
    collection.insert_many([{"v": {"b": 1}}, {"v": {"a": 1}}])
    values = [d["v"] for d in collection.find().sort("v").to_list()]
    assert values == [{"a": 1}, {"b": 1}]
    values = [d["v"] for d in collection.find().sort("v", -1).to_list()]
    assert values == [{"b": 1}, {"a": 1}]


def test_aggregate_sort_stage_handles_unorderable_values(store):
    collection = store["aggmixed"]
    collection.insert_many([{"v": {"b": 1}}, {"v": {"a": 1}}, {"v": None}])
    result = collection.aggregate([{"$sort": {"v": 1}}])
    assert [d["v"] for d in result] == [None, {"a": 1}, {"b": 1}]


def test_cursor_resolution_is_memoised(people):
    cursor = people.find().sort("age", -1)
    first = cursor._resolved()
    assert cursor._resolved() is first  # repeated access: no re-sort
    assert len(cursor) == len(first)


def test_cursor_memo_invalidated_by_chaining(people):
    cursor = people.find().sort("age")
    resolved = cursor._resolved()
    cursor.limit(2)
    limited = cursor._resolved()
    assert limited is not resolved
    assert len(limited) == 2
    cursor.sort("name")
    assert cursor._resolved() is not limited
    assert [d["name"] for d in cursor] == sorted(
        d["name"] for d in people.find()
    )[:2]


# ----------------------------------------------------------------------
# atomic updates (regression: failed updates used to half-apply)
# ----------------------------------------------------------------------
def test_failed_inc_leaves_document_untouched(store):
    """A $set that fails on its second path leaves the first unapplied."""
    collection = store["c"]
    collection.insert_one({"_id": 1, "n": 5, "label": "x"})
    with pytest.raises(StoreError):
        collection.update_one(
            {"_id": 1}, {"$set": {"label": "y", "n.deeper": 1}}
        )
    assert collection.find_one({"_id": 1}) == {
        "_id": 1,
        "n": 5,
        "label": "x",
    }


def test_failed_unstorable_set_leaves_document_untouched(store):
    collection = store["c"]
    collection.insert_one({"_id": 1, "n": 5})
    with pytest.raises(StoreError):
        collection.update_one(
            {"_id": 1}, {"$set": {"n": 6, "bad": object()}}
        )
    assert collection.find_one({"_id": 1}) == {"_id": 1, "n": 5}


def test_failed_update_keeps_indexes_consistent(store):
    collection = store["c"]
    collection.create_index("name", unique=True)
    collection.insert_many(
        [{"_id": 1, "name": "a", "n": 0}, {"_id": 2, "name": "b"}]
    )
    with pytest.raises(DuplicateKeyError):
        collection.update_one({"_id": 1}, {"$set": {"name": "b"}})
    # the old value is still indexed, the attempted one is not
    assert collection.find_one({"name": "a"}) == {
        "_id": 1,
        "name": "a",
        "n": 0,
    }
    assert collection.count_documents({"name": "b"}) == 1
    # and the document still accepts further updates
    assert collection.update_one({"_id": 1}, {"$set": {"n": 1}}) == 1
    assert collection.find_one({"_id": 1})["n"] == 1


# ----------------------------------------------------------------------
# $unset / $pull on missing paths (regression: created intermediates)
# ----------------------------------------------------------------------
def test_unset_missing_nested_path_creates_nothing(store):
    collection = store["c"]
    collection.insert_one({"_id": 1, "kept": True})
    with pytest.raises(StoreError):
        collection.update_one({"_id": 1}, {"$unset": {"a.b.c": ""}})
    assert collection.find_one({"_id": 1}) == {"_id": 1, "kept": True}


def test_pull_missing_nested_path_creates_nothing(store):
    collection = store["c"]
    collection.insert_one({"_id": 1})
    with pytest.raises(StoreError):
        collection.update_one({"_id": 1}, {"$pull": {"a.b": 1}})
    assert collection.find_one({"_id": 1}) == {"_id": 1}


def test_unset_through_non_dict_is_noop(store):
    """$set through a non-dict is refused and changes nothing."""
    collection = store["c"]
    collection.insert_one({"_id": 1, "a": 5, "xs": [{"b": 1}]})
    for path in ("a.b.c", "xs.b"):
        with pytest.raises(StoreError):
            collection.update_one({"_id": 1}, {"$set": {path: 2}})
    assert collection.find_one({"_id": 1}) == {
        "_id": 1, "a": 5, "xs": [{"b": 1}]
    }


def test_unset_existing_nested_path_still_works(store):
    """$set of an existing nested path replaces only that leaf."""
    collection = store["c"]
    collection.insert_one({"_id": 1, "a": {"b": {"c": 1, "d": 2}}})
    collection.update_one({"_id": 1}, {"$set": {"a.b.c": 3}})
    assert collection.find_one({"_id": 1}) == {
        "_id": 1, "a": {"b": {"c": 3, "d": 2}}
    }


# ----------------------------------------------------------------------
# distinct / $regex (regression: bool-int collapse, raw re.error)
# ----------------------------------------------------------------------
def test_invalid_regex_raises_query_error(people):
    with pytest.raises(QueryError):
        people.find_one({"name": {"$regex": "("}})


def test_regex_requires_string_pattern(people):
    with pytest.raises(QueryError):
        people.find_one({"name": {"$regex": 7}})


# ----------------------------------------------------------------------
# query planner
# ----------------------------------------------------------------------
def test_explain_reports_scan_without_index(people):
    people.find({"name": "ada"})
    plan = people.last_plan
    assert plan.kind == "scan"
    assert not plan.indexed
    assert plan.examined == 4


def test_explain_point_plan_via_hash_index(people):
    people.create_index("name")
    people.find({"name": "ada"})
    plan = people.last_plan
    assert plan.kind == "point"
    assert plan.index == "name_1"
    assert plan.path == "name"
    assert plan.indexed
    assert plan.examined == 1


def test_planner_id_fast_path(people):
    people.find({"_id": 2})
    plan = people.last_plan
    assert plan.kind == "point"
    assert plan.index == "_id_"
    assert plan.examined == 1


def test_planner_in_probe_unions_buckets(people):
    """The first indexed path serves the probe; the other conditions
    re-filter its candidates."""
    people.create_index("tags")
    rows = people.find({"age": 36, "tags": "math"}).to_list()
    assert [row["name"] for row in rows] == ["ada"]
    assert people.last_plan.index == "tags_1"
    assert people.last_plan.examined == 2
    assert people.last_plan.returned == 1


def test_planner_range_uses_sorted_index(people):
    """A sorted index serves equality probes like a hash index."""
    people.create_index("age", kind="sorted")
    rows = people.find({"age": 41}).to_list()
    assert [row["name"] for row in rows] == ["alan"]
    assert people.last_plan.kind == "point"
    assert people.last_plan.index == "age_1"


def test_planner_range_not_served_by_hash_index(people):
    """A range predicate is refused, indexed or not."""
    people.create_index("age")
    with pytest.raises(QueryError):
        people.find({"age": {"$gt": 40}})


def test_planner_results_match_scan_order(people):
    people.create_index("tags")
    indexed = people.find({"tags": "code"}).to_list()
    scanned = [d for d in people.find() if "code" in d["tags"]]
    assert indexed == scanned


def test_indexed_find_deep_copies(people):
    people.create_index("name")
    row = people.find_one({"name": "ada"})
    row["age"] = 999
    assert people.find_one({"name": "ada"})["age"] == 36


def test_hash_index_is_multikey_over_arrays(people):
    people.create_index("tags")
    names = {d["name"] for d in people.find({"tags": "math"})}
    assert people.last_plan.kind == "point"
    assert names == {"ada", "alan"}


def test_index_separates_bool_and_int_buckets(store):
    collection = store["c"]
    collection.insert_many([{"v": True}, {"v": 1}, {"v": 1.0}])
    collection.create_index("v")
    assert collection.count_documents({"v": True}) == 1
    assert collection.count_documents({"v": 1}) == 2  # 1 == 1.0


def test_find_records_last_plan(people):
    people.create_index("name")
    people.find({"name": "ada"}).to_list()
    assert people.last_plan.kind == "point"
    assert people.last_plan.returned == 1
    people.find({"age": 36}).to_list()
    assert people.last_plan.kind == "scan"


def test_plan_metrics_counters(people):
    from repro.obs import Metrics

    metrics = Metrics()
    people.metrics = metrics
    people.create_index("name")
    people.find({"name": "ada"}).to_list()
    people.find({"age": 36}).to_list()
    assert metrics.counter_value("kdb.plans.indexed") == 1
    assert metrics.counter_value("kdb.plans.scan") == 1
    snapshot = metrics.snapshot()
    assert snapshot["histograms"]["kdb.query.latency"]["count"] == 2


# ----------------------------------------------------------------------
# sorted indexes: index-ordered sort().limit()
# ----------------------------------------------------------------------
def test_indexed_sort_matches_scan_sort(people):
    scan = people.find().sort("age", 1).to_list()
    people.create_index("age", kind="sorted")
    indexed = people.find().sort("age", 1).to_list()
    assert indexed == scan
    assert people.find().sort("age", -1).to_list() == scan[::-1]


def test_indexed_sort_with_limit_and_missing_values(store):
    collection = store["c"]
    collection.insert_many(
        [{"n": 3}, {"m": "no n"}, {"n": 1}, {"n": None}, {"n": 2}]
    )
    expected_asc = collection.find().sort("n", 1).to_list()
    expected_top2 = collection.find().sort("n", -1).limit(2).to_list()
    collection.create_index("n", kind="sorted")
    assert collection.find().sort("n", 1).to_list() == expected_asc
    assert (
        collection.find().sort("n", -1).limit(2).to_list()
        == expected_top2
    )


def test_indexed_sort_mixed_types_matches_scan(store):
    collection = store["c"]
    collection.insert_many(
        [{"v": 2}, {"v": "b"}, {"v": 1.5}, {"v": "a"}, {"v": 10}]
    )
    expected = collection.find().sort("v", 1).to_list()
    collection.create_index("v", kind="sorted")
    assert collection.find().sort("v", 1).to_list() == expected


def test_whole_collection_top_k_reads_only_k_documents(
    store, monkeypatch
):
    """An index-ordered top-k over every document walks the index and
    stops: no document outside the answer is visited."""
    from repro.kdb import documentstore

    collection = store["c"]
    collection.insert_many(
        [{"n": None}, {"n": 2}, {"n": 1}, {"n": 2}, {"n": None}, {"n": 0}]
    )
    expected_desc = collection.find({}).sort("n", -1).limit(3).to_list()
    expected_asc = collection.find({}).sort("n", 1).limit(3).to_list()
    collection.create_index("n", kind="sorted")
    walked = []
    original = documentstore._walk_path

    def counting(document, parts):
        walked.append(document["_id"])
        return original(document, parts)

    monkeypatch.setattr(documentstore, "_walk_path", counting)
    top = collection.find({}).sort("n", -1).limit(3).to_list()
    assert [row["n"] for row in top] == [2, 2, 1]
    assert top == expected_desc
    assert collection.find({}).sort("n", 1).limit(3).to_list() == (
        expected_asc
    )
    assert [row["n"] for row in expected_asc] == [None, None, 0]
    assert walked == []


def test_stale_cursor_falls_back_to_full_sort(people):
    people.create_index("age", kind="sorted")
    cursor = people.find().sort("age", 1)
    people.insert_one({"name": "barbara", "age": 1, "tags": []})
    resolved = cursor._resolved()
    # the cursor was planned before the insert: it must still sort its
    # own 4 matches correctly (via fallback), not drop or misorder them
    assert [row["age"] for row in resolved] == [36, 41, 72, 85]


def test_sorted_index_upgrade_from_hash(people):
    people.create_index("age")
    assert people._index_order("age", False) is None
    people.create_index("age", kind="sorted")
    assert people._index_order("age", False) is not None
    # downgrade requests are no-ops
    people.create_index("age")
    assert people._index_order("age", False) is not None
    assert [d["age"] for d in people.find().sort("age", -1).limit(2)] == [
        85,
        72,
    ]


def test_unknown_index_kind_rejected(people):
    with pytest.raises(StoreError):
        people.create_index("age", kind="btree")


# ----------------------------------------------------------------------
# aggregation pushdown
# ----------------------------------------------------------------------
def test_aggregate_leading_match_uses_planner(people):
    """Aggregation has no $match stage: filtering is find()'s job."""
    with pytest.raises(QueryError):
        people.aggregate([{"$match": {"name": "ada"}}])


def test_aggregate_copies_results_not_collection(people):
    rows = people.aggregate([{"$sort": {"age": 1}}])
    rows[0]["age"] = 999
    assert people.find_one({"name": "ada"})["age"] == 36


# ----------------------------------------------------------------------
# malformed requests fail with the library's own error types
# ----------------------------------------------------------------------
_MALFORMED = {
    "non-string query key": lambda c: c.find({1: 2}),
    "nested non-string key": lambda c: c.find({"a": {1: 2}}),
    "range operator": lambda c: c.find({"score": {"$gt": 0.5}}),
    "logical operator": lambda c: c.find({"$or": [{"a": 1}, {"a": 2}]}),
    "operator in count": lambda c: c.count_documents({"a": {"$in": [1]}}),
    "operator in delete": lambda c: c.delete_many({"a": {"$exists": True}}),
    "non-dict query": lambda c: c.find_one([("a", 1)]),
    "set in query": lambda c: c.find({"_id": {1}}),
    "tuple in query": lambda c: c.find({"a": (1,)}),
    "removed update operator": lambda c: c.update_one(
        {"a": 1}, {"$inc": {"n": 1}}
    ),
    "non-string $set path": lambda c: c.update_one(
        {"a": 1}, {"$set": {1: 2}}
    ),
    "tuple in $set": lambda c: c.update_one({"a": 1}, {"$set": {"t": (1,)}}),
    "operator in update query": lambda c: c.update_one(
        {"a": {"$gte": 1}}, {"$set": {"n": 1}}
    ),
    "non-dict update": lambda c: c.update_one({"a": 1}, [("$set", {})]),
    "list sort spec": lambda c: c.find().sort([("a", 1)]),
    "non-int limit": lambda c: c.find().limit(None),
    "$match stage": lambda c: c.aggregate([{"$match": {"a": 1}}]),
    "removed accumulator": lambda c: c.aggregate(
        [{"$group": {"_id": "$a", "s": {"$sum": "$a"}}}]
    ),
    "list $sort spec": lambda c: c.aggregate([{"$sort": [("a", 1)]}]),
    "bad $sort direction": lambda c: c.aggregate([{"$sort": {"a": "up"}}]),
    "non-dict $group": lambda c: c.aggregate([{"$group": 5}]),
    "$group without _id": lambda c: c.aggregate([{"$group": {}}]),
    "non-list pipeline": lambda c: c.aggregate({"$sort": {"a": 1}}),
    "two-key stage": lambda c: c.aggregate([{"$sort": {}, "$group": {}}]),
    "non-string key in document": lambda c: c.insert_one({1: "a"}),
    "tuple in document": lambda c: c.insert_one({"t": [(1, 2)]}),
    "non-scalar _id": lambda c: c.insert_one({"_id": [1]}),
}


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("shape", sorted(_MALFORMED))
def test_malformed_requests_raise_typed_errors(store, shape, indexed):
    collection = store["c"]
    collection.insert_many([{"_id": 1, "a": 1}, {"_id": 2, "a": 2}])
    if indexed:
        collection.create_index("a")
    with pytest.raises(StoreError):  # QueryError is a StoreError
        _MALFORMED[shape](collection)
    assert collection.find().to_list() == [
        {"_id": 1, "a": 1},
        {"_id": 2, "a": 2},
    ]


# ----------------------------------------------------------------------
# writes the journal cannot round-trip are refused before they land
# ----------------------------------------------------------------------
_UNROUNDTRIPPABLE = [
    {"_id": 5, 1: "a", "1": "b"},  # unsortable keys: journal write fails
    {"_id": 5, "k": {2: "b"}},  # an int key replays as a string
    {"_id": 5, "t": (1, 2)},  # a tuple replays as a list
    {"_id": 5, "deep": [{"t": ({"x": 1},)}]},
]


@pytest.mark.parametrize("sharded", [False, True])
@pytest.mark.parametrize("document", _UNROUNDTRIPPABLE, ids=repr)
def test_unroundtrippable_writes_are_refused_before_memory(
    tmp_path, sharded, document
):
    if sharded:
        store = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    else:
        store = DocumentStore()
    collection = store["c"]
    collection.insert_one({"_id": 1, "a": {"b": 1}})
    with pytest.raises(StoreError):
        collection.insert_one(document)
    fields = {key: value for key, value in document.items() if key != "_id"}
    with pytest.raises(StoreError):
        collection.update_one({"_id": 1}, {"$set": fields})
    expected = [{"_id": 1, "a": {"b": 1}}]
    assert collection.find_one({"_id": 5}) is None
    assert collection.find().to_list() == expected
    if sharded:
        store.close()
        with ShardedDocumentStore(tmp_path / "db") as reopened:
            assert reopened["c"].find().to_list() == expected
            assert reopened.load_warnings == []
