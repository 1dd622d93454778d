"""Property-based tests for the aggregation pipeline."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdb.documentstore import DocumentStore

rows = st.lists(
    st.fixed_dictionaries(
        {
            "g": st.sampled_from(["a", "b", "c"]),
            "v": st.integers(-100, 100),
        }
    ),
    min_size=1,
    max_size=30,
)


def build(documents):
    collection = DocumentStore()["c"]
    collection.insert_many([dict(d) for d in documents])
    return collection


@given(rows)
@settings(max_examples=50, deadline=None)
def test_group_sums_match_manual(documents):
    collection = build(documents)
    result = collection.aggregate(
        [{"$group": {"_id": "$g", "mean": {"$avg": "$v"},
                     "n": {"$count": True}}}]
    )
    manual_sum = defaultdict(int)
    manual_count = defaultdict(int)
    for document in documents:
        manual_sum[document["g"]] += document["v"]
        manual_count[document["g"]] += 1
    assert {row["_id"]: row["n"] for row in result} == dict(manual_count)
    for row in result:
        assert row["mean"] * row["n"] == pytest.approx(manual_sum[row["_id"]])


@given(rows)
@settings(max_examples=50, deadline=None)
def test_group_partition_is_total(documents):
    collection = build(documents)
    result = collection.aggregate(
        [{"$group": {"_id": "$g", "n": {"$count": True}}}]
    )
    assert sum(row["n"] for row in result) == len(documents)


@given(rows)
@settings(max_examples=50, deadline=None)
def test_min_max_bound_avg(documents):
    collection = build(documents)
    result = collection.aggregate(
        [
            {
                "$group": {
                    "_id": "$g",
                    "high": {"$max": "$v"},
                    "mean": {"$avg": "$v"},
                }
            }
        ]
    )
    for row in result:
        values = [d["v"] for d in documents if d["g"] == row["_id"]]
        assert row["high"] == max(values)
        assert min(values) <= row["mean"] <= row["high"]


@given(rows)
@settings(max_examples=50, deadline=None)
def test_match_then_count_equals_count_documents(documents):
    """Each group's $count equals count_documents on its key."""
    collection = build(documents)
    result = collection.aggregate(
        [{"$group": {"_id": "$g", "n": {"$count": True}}}]
    )
    for row in result:
        assert row["n"] == collection.count_documents({"g": row["_id"]})


@given(rows)
@settings(max_examples=40, deadline=None)
def test_sort_stage_orders(documents):
    collection = build(documents)
    result = collection.aggregate([{"$sort": {"v": 1}}])
    values = [row["v"] for row in result]
    assert values == sorted(values)
