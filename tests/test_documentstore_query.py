"""Tests for the document-store query language: implicit equality on
dot paths. Every MongoDB query operator is outside it, so each of the
operator tests below pins that its operator is refused with
:class:`QueryError` rather than silently matching nothing."""

import pytest

from repro.exceptions import QueryError
from repro.kdb.documentstore import DocumentStore


@pytest.fixture()
def items():
    store = DocumentStore()
    collection = store["items"]
    collection.insert_many(
        [
            {"k": "a", "v": 1, "tags": ["x", "y"], "meta": {"q": 3}},
            {"k": "b", "v": 5, "tags": ["y"], "meta": {"q": 7}},
            {"k": "c", "v": 10, "tags": [], "meta": {}},
            {"k": "d", "v": None, "tags": ["x"], "note": "rare item"},
            {"k": "e", "events": [{"t": 1, "ok": True}, {"t": 2, "ok": False}]},
        ]
    )
    return collection


def count(collection, query):
    return collection.count_documents(query)


def refused(collection, query):
    with pytest.raises(QueryError):
        count(collection, query)
    return True


def test_eq_ne(items):
    assert count(items, {"v": 5}) == 1
    assert refused(items, {"v": {"$eq": 5}})
    assert refused(items, {"k": {"$ne": "a"}})


def test_comparison_operators(items):
    for operator in ("$gt", "$gte", "$lt", "$lte"):
        assert refused(items, {"v": {operator: 1}})


def test_comparisons_ignore_none(items):
    # Document d has v = None: equality with None matches it alone, and
    # a missing field is not None.
    assert count(items, {"v": None}) == 1
    assert count(items, {"note": None}) == 0


def test_range_combination(items):
    assert refused(items, {"v": {"$gt": 1, "$lt": 10}})


def test_in_nin(items):
    assert refused(items, {"k": {"$in": ["a", "c", "zzz"]}})
    assert refused(items, {"k": {"$nin": ["a", "c"]}})


def test_in_requires_list(items):
    assert refused(items, {"k": {"$in": "a"}})


def test_in_matches_array_membership(items):
    assert count(items, {"tags": "x"}) == 2
    assert refused(items, {"tags": {"$in": ["x"]}})


def test_exists(items):
    assert refused(items, {"note": {"$exists": True}})


def test_not(items):
    assert refused(items, {"v": {"$not": {"$gt": 1}}})


def test_not_requires_document(items):
    assert refused(items, {"v": {"$not": 5}})


def test_regex(items):
    assert refused(items, {"note": {"$regex": "^rare"}})


def test_size(items):
    assert refused(items, {"tags": {"$size": 2}})


def test_all(items):
    assert refused(items, {"tags": {"$all": ["x", "y"]}})


def test_elem_match(items):
    assert refused(items, {"events": {"$elemMatch": {"t": 2, "ok": False}}})


def test_elem_match_requires_document(items):
    assert refused(items, {"events": {"$elemMatch": 5}})


def test_dot_path_into_dict(items):
    assert count(items, {"meta.q": 3}) == 1
    assert count(items, {"meta": {"q": 7}}) == 1  # whole-document equality
    assert count(items, {"meta.q": 4}) == 0


def test_dot_path_into_array_of_dicts(items):
    assert count(items, {"events.t": 2}) == 1
    assert count(items, {"events.ok": True}) == 1


def test_dot_path_numeric_index(items):
    # A numeric segment is a key like any other, never a list position.
    assert count(items, {"tags.0": "x"}) == 0
    assert count(items, {"tags": ["x", "y"]}) == 1  # whole-array equality


def test_and(items):
    # Several fields in one query all have to match.
    assert count(items, {"tags": "y", "v": 5}) == 1
    assert refused(items, {"$and": [{"v": 5}, {"tags": "y"}]})


def test_or(items):
    assert refused(items, {"$or": [{"k": "a"}, {"k": "c"}]})


def test_nor(items):
    assert refused(items, {"$nor": [{"k": "a"}]})


def test_nested_logical_operators(items):
    # An operator nested inside an equality operand is refused too.
    assert refused(items, {"meta": {"q": {"$gte": 5}}})
    assert refused(items, {"events": [{"$or": []}]})


def test_logical_operator_requires_list(items):
    assert refused(items, {"$and": {}})
    assert refused(items, {"$or": []})


def test_unknown_top_level_operator(items):
    assert refused(items, {"$frobnicate": []})


def test_unknown_field_operator(items):
    assert refused(items, {"v": {"$near": 3}})


def test_query_must_be_dict(items):
    with pytest.raises(QueryError):
        items.find(["not", "a", "query"])
    assert refused(items, {1: "a"})


def test_empty_query_matches_all(items):
    assert count(items, {}) == 5
    assert count(items, None) == 5
