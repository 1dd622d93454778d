"""Property-based tests for the document store (hypothesis)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.kdb.documentstore import DocumentStore
from repro.kdb.shards import ShardedDocumentStore
from tests.flat_store import write_flat_store

# JSON-safe scalar values (no NaN: NaN breaks JSON round-trips and
# equality, which the store contract excludes anyway).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)

field_names = st.text(
    alphabet="abcdefghij", min_size=1, max_size=6
).filter(lambda s: not s.startswith("$"))

documents = st.dictionaries(
    field_names,
    st.one_of(
        scalars,
        st.lists(scalars, max_size=4),
        st.dictionaries(field_names, scalars, max_size=3),
    ),
    max_size=5,
)


@given(st.lists(documents, max_size=20))
@settings(max_examples=60, deadline=None)
def test_insert_then_find_all_returns_everything(docs):
    collection = DocumentStore()["c"]
    collection.insert_many(docs)
    assert len(collection.find()) == len(docs)
    assert collection.count_documents() == len(docs)


@given(st.lists(documents, max_size=15))
@settings(max_examples=40, deadline=None)
def test_roundtrip_preserves_content(docs):
    collection = DocumentStore()["c"]
    ids = collection.insert_many(docs)
    for doc_id, original in zip(ids, docs):
        stored = collection.find_one({"_id": doc_id})
        stored.pop("_id")
        assert stored == original


@given(st.lists(documents, min_size=1, max_size=15), st.data())
@settings(max_examples=40, deadline=None)
def test_equality_query_is_consistent_with_scan(docs, data):
    collection = DocumentStore()["c"]
    collection.insert_many(docs)
    # Pick a field/value that exists somewhere.
    candidates = [
        (key, value)
        for doc in docs
        for key, value in doc.items()
        if not isinstance(value, (list, dict))
    ]
    if not candidates:
        return
    key, value = data.draw(st.sampled_from(candidates))
    matched = collection.find({key: value}).to_list()
    # Every matched document's field equals the value (modulo
    # bool/int), or — implicit equality fans out over arrays, like
    # MongoDB — contains an element that does.
    for doc in matched:
        stored = doc.get(key)
        elements = stored if isinstance(stored, list) else [stored]
        assert any(
            element == value
            and isinstance(element, bool) == isinstance(value, bool)
            for element in elements
        )
    assert len(matched) >= 1


@given(st.lists(documents, max_size=15))
@settings(max_examples=40, deadline=None)
def test_save_load_identity(docs):
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        _check_save_load(docs, directory)


def _check_save_load(docs, directory):
    """A flat ``save()`` directory migrates to framed shards intact."""
    store = DocumentStore()
    store["c"].insert_many(docs)
    write_flat_store(store, directory)
    original = sorted(
        store["c"].find().to_list(), key=lambda d: str(d["_id"])
    )
    with ShardedDocumentStore(directory, n_shards=2) as loaded:
        reloaded = sorted(
            loaded["c"].find().to_list(), key=lambda d: str(d["_id"])
        )
    assert json.dumps(original, sort_keys=True, default=str) == json.dumps(
        reloaded, sort_keys=True, default=str
    )


@given(
    st.lists(
        st.dictionaries(st.just("v"), st.integers(0, 100), min_size=1),
        min_size=1,
        max_size=20,
    ),
    st.integers(0, 100),
)
@settings(max_examples=50, deadline=None)
def test_range_query_partitions(docs, threshold):
    """Equality probes on every stored value partition the collection
    (range operators are refused)."""
    collection = DocumentStore()["c"]
    collection.insert_many(docs)
    values = {doc["v"] for doc in docs} | {threshold}
    assert sum(
        collection.count_documents({"v": value}) for value in values
    ) == len(docs)
    with pytest.raises(QueryError):
        collection.count_documents({"v": {"$lt": threshold}})


@given(st.lists(documents, min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_delete_inverts_insert(docs):
    collection = DocumentStore()["c"]
    ids = collection.insert_many(docs)
    for doc_id in ids:
        assert collection.delete_one({"_id": doc_id}) == 1
    assert len(collection) == 0


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_sort_orders_values(values):
    collection = DocumentStore()["c"]
    collection.insert_many([{"v": value} for value in values])
    ascending = [d["v"] for d in collection.find().sort("v")]
    assert ascending == sorted(values)
    descending = [d["v"] for d in collection.find().sort("v", -1)]
    assert descending == sorted(values, reverse=True)


@given(st.lists(st.integers(0, 20), min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_index_does_not_change_results(values):
    plain = DocumentStore()["c"]
    indexed = DocumentStore()["c"]
    docs = [{"v": value} for value in values]
    plain.insert_many(docs)
    indexed.create_index("v")
    indexed.insert_many(docs)
    for probe in set(values):
        a = sorted(d["_id"] for d in plain.find({"v": probe}))
        b = sorted(d["_id"] for d in indexed.find({"v": probe}))
        assert a == b


#: Sort values with ties, nulls and two types; ``MISSING`` leaves the
#: field out of the document.
MISSING = object()
sort_values = st.one_of(
    st.integers(0, 5), st.sampled_from([None, 2.5, "a", "b", MISSING])
)


@given(
    st.lists(sort_values, min_size=1, max_size=25),
    st.integers(0, 30),
    st.sampled_from([1, -1]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_indexed_top_k_matches_a_scan_sort(values, k, direction, query):
    """``find(q).sort(v).limit(k)`` through a sorted index returns the
    scan-sort's documents in the scan-sort's order: nulls and missing
    values, ties in insertion order, the whole collection or a part."""
    docs = [
        {"g": position % 2} if value is MISSING
        else {"v": value, "g": position % 2}
        for position, value in enumerate(values)
    ]
    plain = DocumentStore()["c"]
    indexed = DocumentStore()["c"]
    plain.insert_many(docs)
    indexed.insert_many(docs)
    indexed.create_index("v", kind="sorted")
    probe = {"g": 0} if query else {}
    for limit in (k, None):
        expected = plain.find(probe).sort("v", direction)
        got = indexed.find(probe).sort("v", direction)
        if limit is not None:
            expected, got = expected.limit(limit), got.limit(limit)
        assert got.to_list() == expected.to_list()


#: Every type group a sorted index orders: ``bool``/``int``/``float``/
#: ``str`` on the raw values, dicts (unorderable, ``repr`` order) and
#: ``None`` through the ordering wrapper.
mixed_sort_values = st.one_of(
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 1)),
    st.text(alphabet="abc", max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=2),
    st.none(),
)


@given(
    st.lists(mixed_sort_values, min_size=1, max_size=40),
    st.sampled_from([1, -1]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sorted_index_orders_every_type_group_as_a_scan_sort(
    values, direction
):
    """Raw-value groups and wrapped groups, rebuilt after every new key:
    the index walk equals the scan sort, ties in insertion order."""
    plain = DocumentStore()["c"]
    indexed = DocumentStore()["c"]
    indexed.create_index("v", kind="sorted")
    for value in values:
        plain.insert_one({"v": value})
        indexed.insert_one({"v": value})
        expected = plain.find({}).sort("v", direction).limit(5)
        got = indexed.find({}).sort("v", direction).limit(5)
        assert got.to_list() == expected.to_list()
    expected = plain.find({}).sort("v", direction)
    assert indexed.find({}).sort("v", direction).to_list() == (
        expected.to_list()
    )
