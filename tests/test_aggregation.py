"""Tests for the document-store aggregation pipeline."""

import pytest

from repro.exceptions import QueryError
from repro.kdb.documentstore import DocumentStore


@pytest.fixture()
def sales():
    store = DocumentStore()
    collection = store["sales"]
    collection.insert_many(
        [
            {"region": "north", "amount": 10, "units": 1},
            {"region": "north", "amount": 30, "units": 2},
            {"region": "south", "amount": 5, "units": 1},
            {"region": "south", "amount": 15, "units": 3},
            {"region": "south", "amount": 25, "units": 1},
            {"region": "west", "amount": 100, "units": 10},
        ]
    )
    return collection


def test_group_sum_avg(sales):
    """Means per group; a $sum accumulator is refused."""
    result = sales.aggregate(
        [
            {"$group": {"_id": "$region", "mean": {"$avg": "$amount"}}},
            {"$sort": {"_id": 1}},
        ]
    )
    assert [row["_id"] for row in result] == ["north", "south", "west"]
    by_region = {row["_id"]: row for row in result}
    assert by_region["north"]["mean"] == pytest.approx(20.0)
    assert by_region["south"]["mean"] == pytest.approx(15.0)
    with pytest.raises(QueryError):
        sales.aggregate(
            [{"$group": {"_id": "$region", "total": {"$sum": "$amount"}}}]
        )


def test_group_min_max_count(sales):
    result = sales.aggregate(
        [
            {
                "$group": {
                    "_id": "$region",
                    "n": {"$count": True},
                    "high": {"$max": "$amount"},
                }
            }
        ]
    )
    by_region = {row["_id"]: row for row in result}
    assert by_region["south"]["n"] == 3
    assert by_region["south"]["high"] == 25
    with pytest.raises(QueryError):
        sales.aggregate(
            [{"$group": {"_id": "$region", "low": {"$min": "$amount"}}}]
        )


def test_group_push(sales):
    with pytest.raises(QueryError):
        sales.aggregate(
            [{"$group": {"_id": "$region", "amounts": {"$push": "$amount"}}}]
        )


def test_match_then_group(sales):
    """There is no $match stage; grouping runs over the collection."""
    with pytest.raises(QueryError):
        sales.aggregate([{"$match": {"region": "west"}}])
    result = sales.aggregate(
        [
            {"$group": {"_id": "$units", "n": {"$count": True}}},
            {"$sort": {"n": -1}},
        ]
    )
    assert result[0] == {"_id": 1, "n": 3}


def test_group_constant_id_totals(sales):
    result = sales.aggregate(
        [
            {
                "$group": {
                    "_id": None,
                    "n": {"$count": True},
                    "high": {"$max": "$amount"},
                }
            }
        ]
    )
    assert result == [{"_id": None, "n": 6, "high": 100}]


def test_sort_limit_skip(sales):
    result = sales.aggregate([{"$sort": {"amount": -1}}])
    assert [row["amount"] for row in result] == [100, 30, 25, 15, 10, 5]
    for stage in ({"$skip": 1}, {"$limit": 2}):
        with pytest.raises(QueryError):
            sales.aggregate([{"$sort": {"amount": -1}}, stage])


def test_project(sales):
    with pytest.raises(QueryError):
        sales.aggregate([{"$project": {"amount": 1}}])


def test_group_ignores_non_numeric_in_sum():
    store = DocumentStore()
    collection = store["c"]
    collection.insert_many(
        [{"g": 1, "v": 5}, {"g": 1, "v": "oops"}, {"g": 1, "v": True},
         {"g": 1}]
    )
    result = collection.aggregate(
        [{"$group": {"_id": "$g", "high": {"$max": "$v"},
                     "mean": {"$avg": "$v"}}}]
    )
    assert result[0]["high"] == 5
    assert result[0]["mean"] == pytest.approx(5.0)


def test_group_keeps_bool_apart_from_numbers():
    """Groups follow the store's equality: ``True`` != 1, 1 == 1.0."""
    store = DocumentStore()
    collection = store["c"]
    collection.insert_many([{"v": True}, {"v": 1}, {"v": 1.0}])
    result = collection.aggregate(
        [{"$group": {"_id": "$v", "n": {"$count": True}}}]
    )
    counts = {
        (type(row["_id"]) is bool, row["_id"]): row["n"] for row in result
    }
    assert counts == {(True, True): 1, (False, 1): 2}
    assert collection.count_documents({"v": True}) == 1
    assert collection.count_documents({"v": 1}) == 2


def test_avg_of_empty_group_is_none():
    store = DocumentStore()
    collection = store["c"]
    collection.insert_one({"g": 1})
    result = collection.aggregate(
        [{"$group": {"_id": "$g", "mean": {"$avg": "$missing"}}}]
    )
    assert result[0]["mean"] is None


def test_invalid_stages_raise(sales):
    with pytest.raises(QueryError):
        sales.aggregate([{"$teleport": {}}])
    with pytest.raises(QueryError):
        sales.aggregate([{"$group": {"n": {"$count": True}}}])
    with pytest.raises(QueryError):
        sales.aggregate(
            [{"$group": {"_id": None, "x": {"$median": "$amount"}}}]
        )
    with pytest.raises(QueryError):
        sales.aggregate([{"$sort": {}, "$group": {"_id": None}}])


def test_aggregate_does_not_mutate_store(sales):
    rows = sales.aggregate([{"$sort": {"amount": -1}}])
    rows[0]["amount"] = 0
    assert sales.find_one({"region": "west"})["amount"] == 100


def test_kdb_statistics():
    from repro.core import KnowledgeItem
    from repro.kdb import KnowledgeBase

    kdb = KnowledgeBase()
    for i in range(4):
        item = KnowledgeItem(
            kind="cluster" if i % 2 else "itemset",
            end_goal="g",
            title=f"i{i}",
        )
        item.score = i / 4
        kdb.store_item(item)
        kdb.record_feedback(item, "u", "high" if i >= 2 else "low")
    stats = kdb.statistics()
    kinds = {row["_id"]: row for row in stats["items_by_kind"]}
    assert kinds["cluster"]["count"] == 2
    assert kinds["itemset"]["count"] == 2
    degrees = {row["_id"]: row["count"] for row in
               stats["feedback_by_degree"]}
    assert degrees == {"high": 2, "low": 2}
