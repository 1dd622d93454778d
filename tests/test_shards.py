"""Tests for the sharded K-DB persistence layer and the store's access
paths: shard placement, journal replay, compaction crash-safety, and
Hypothesis identity properties (save/load/compact round trips; indexed
vs scanned results of randomized equality queries and sorts)."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StoreError
from repro.kdb.documentstore import DocumentStore
from repro.kdb.fsck import fsck
from repro.kdb.kdb import DISCOVERED_KNOWLEDGE, KnowledgeBase
from repro.kdb.shards import ShardedDocumentStore, shard_of


@pytest.fixture()
def sharded(tmp_path):
    return ShardedDocumentStore(tmp_path / "db", n_shards=4)


def _reopen(store: ShardedDocumentStore) -> ShardedDocumentStore:
    store.close()
    return ShardedDocumentStore(store.directory)


def _contents(store, name="c"):
    return {
        json.dumps(doc["_id"], sort_keys=True): doc
        for doc in store[name].find()
    }


# ----------------------------------------------------------------------
# shard placement
# ----------------------------------------------------------------------
def test_shard_of_is_stable_and_in_range():
    for doc_id in (0, 1, "abc", 3.5, True, None, [1, 2], {"k": "v"}):
        shard = shard_of(doc_id, 8)
        assert 0 <= shard < 8
        assert shard == shard_of(doc_id, 8)


def test_shard_of_spreads_ids():
    shards = {shard_of(i, 8) for i in range(200)}
    assert len(shards) == 8


def test_invalid_shard_count_rejected(tmp_path):
    with pytest.raises(StoreError):
        ShardedDocumentStore(tmp_path / "db", n_shards=0)


# ----------------------------------------------------------------------
# journal + replay
# ----------------------------------------------------------------------
def test_inserts_replay_after_reopen(sharded):
    sharded["c"].insert_many([{"x": i} for i in range(20)])
    reopened = _reopen(sharded)
    assert len(reopened["c"]) == 20
    assert _contents(reopened) == {
        json.dumps(i + 1): {"_id": i + 1, "x": i} for i in range(20)
    }
    assert reopened.load_warnings == []


def test_updates_and_deletes_replay(sharded):
    collection = sharded["c"]
    collection.insert_many([{"_id": i, "n": i % 4} for i in range(10)])
    for doc_id in (5, 7, 9):
        collection.update_one({"_id": doc_id}, {"$set": {"n": 100 + doc_id}})
    collection.update_one({"n": 2}, {"$set": {"tag.first": True}})
    collection.delete_one({"n": 0})
    collection.delete_many({"n": 1})
    expected = _contents(sharded)
    assert len(expected) == 8 and expected["2"]["tag"] == {"first": True}
    reopened = _reopen(sharded)
    assert _contents(reopened) == expected


def test_clear_replays_across_all_shards(sharded):
    collection = sharded["c"]
    collection.insert_many([{"_id": i} for i in range(16)])
    collection.drop()
    collection.insert_one({"_id": 99, "after": True})
    reopened = _reopen(sharded)
    assert _contents(reopened) == {
        "99": {"_id": 99, "after": True}
    }


def test_indexes_persist_in_manifest(sharded):
    collection = sharded["c"]
    collection.insert_many([{"n": i} for i in range(5)])
    collection.create_index("n", kind="sorted")
    reopened = _reopen(sharded)
    assert reopened["c"].index_names() == ["n_1"]
    assert reopened["c"].find_one({"n": 3}) == {"_id": 4, "n": 3}
    plan = reopened["c"].last_plan
    assert plan.kind == "point" and plan.index == "n_1"
    assert reopened["c"]._index_order("n", True) is not None
    top = reopened["c"].find().sort("n", -1).limit(2).to_list()
    assert [doc["n"] for doc in top] == [4, 3]


def test_new_ids_continue_after_replay(sharded):
    sharded["c"].insert_many([{}, {}, {}])
    reopened = _reopen(sharded)
    assert reopened["c"].insert_one({}) == 4


def test_torn_log_tail_is_truncated_silently(sharded):
    sharded["c"].insert_many([{"_id": i} for i in range(8)])
    sharded.close()
    # chop bytes off one shard log, as a crash mid-append would
    logs = sorted(sharded.directory.glob("c.shard-*.log.jsonl"))
    victim = next(path for path in logs if path.stat().st_size > 0)
    victim.write_bytes(victim.read_bytes()[:-5])
    reopened = ShardedDocumentStore(sharded.directory)
    # exactly the in-flight record is lost — expected, silent, metered
    assert len(reopened["c"]) == 7
    assert reopened.load_warnings == []
    assert reopened.recovery_stats["torn_tail"] == 1
    assert reopened.degraded_collections == set()
    # the torn bytes were physically truncated away
    tail = victim.read_bytes()
    assert tail == b"" or tail.endswith(b"\n")
    reopened.close()


def test_interior_corruption_is_quarantined_not_dropped(sharded):
    # Regression for the PR 7 behavior where *any* undecodable line
    # was skipped into load_warnings: damage in the middle of a log
    # must be preserved and flagged, never silently shortened away.
    sharded["c"].insert_many([{"_id": i} for i in range(8)])
    sharded.close()
    logs = sorted(sharded.directory.glob("c.shard-*.log.jsonl"))
    victim = next(
        path
        for path in logs
        if len(path.read_bytes().splitlines()) >= 3
    )
    lines = victim.read_bytes().splitlines(True)
    lines[1] = b"XX" + lines[1][2:]  # flip bytes in an interior record
    victim.write_bytes(b"".join(lines))
    reopened = ShardedDocumentStore(sharded.directory)
    assert reopened.recovery_stats["quarantined"] >= 1
    assert "c" in reopened.degraded_collections
    assert any("quarantined" in w for w in reopened.load_warnings)
    sidecar = next(
        sharded.directory.glob("c.shard-*.quarantine.jsonl")
    )
    entries = [
        json.loads(line) for line in sidecar.read_text().splitlines()
    ]
    assert entries and entries[0]["source"] == victim.name
    assert reopened.stats()["c"]["degraded"] is True
    # reopening again must not duplicate sidecar entries
    reopened.close()
    again = ShardedDocumentStore(sharded.directory)
    assert len(sidecar.read_text().splitlines()) == len(entries)
    # compaction rewrites clean bases and clears the degraded flag
    again.compact()
    assert again.degraded_collections == set()
    again.close()
    clean = ShardedDocumentStore(sharded.directory)
    assert clean.recovery_stats["quarantined"] == 0
    clean.close()


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def test_compact_folds_logs_into_bases(sharded):
    collection = sharded["c"]
    collection.insert_many([{"_id": i, "low": i < 10} for i in range(30)])
    collection.delete_many({"low": True})
    expected = _contents(sharded)
    assert sharded.pending_ops() > 0
    sharded.compact()
    assert sharded.pending_ops() == 0
    assert sharded.stats()["c"]["log_bytes"] == 0
    assert sharded.stats()["c"]["base_bytes"] > 0
    reopened = _reopen(sharded)
    assert _contents(reopened) == expected


def test_stale_log_replays_idempotently_over_compacted_base(sharded):
    """A crash window leaves both the new bases and the old logs: the
    replay of the full log over the compacted base must converge."""
    collection = sharded["c"]
    collection.insert_many([{"_id": i, "n": i} for i in range(12)])
    collection.drop()
    collection.insert_many([{"_id": i, "n": -i} for i in range(6)])
    collection.delete_one({"_id": 3})
    expected = _contents(sharded)
    sharded.close()
    # preserve the pre-compaction logs, compact, then put them back
    logs = {
        path.name: path.read_bytes()
        for path in sharded.directory.glob("c.shard-*.log.jsonl")
    }
    store = ShardedDocumentStore(sharded.directory)
    store.compact()
    store.close()
    for name, blob in logs.items():
        (sharded.directory / name).write_bytes(blob)
    recovered = ShardedDocumentStore(sharded.directory)
    assert _contents(recovered) == expected


def test_missing_base_after_compaction_is_damage(sharded):
    """Past generation 0 every shard has a base: losing one must not
    reopen silently with fewer documents."""
    sharded["c"].insert_many([{"_id": i} for i in range(11)])
    sharded.compact()
    sharded.close()
    victim = sharded.directory / "c.shard-0000.jsonl"
    lost = sum(shard_of(i, 4) == 0 for i in range(11))
    assert lost > 0
    victim.unlink()

    report = fsck(sharded.directory)
    assert [(i.kind, i.path) for i in report.issues] == [
        ("missing_base", victim.name)
    ]
    assert not report.ok

    reopened = ShardedDocumentStore(sharded.directory)
    assert len(_contents(reopened)) == 11 - lost
    assert reopened.degraded_collections == {"c"}
    assert any(victim.name in w for w in reopened.load_warnings)
    assert reopened.recovery_stats["gen_mismatch"] == 1
    reopened.close()

    # repair compacts what is left: every base is back, fsck is clean
    assert fsck(sharded.directory, repair=True).ok
    assert fsck(sharded.directory).clean
    final = ShardedDocumentStore(sharded.directory)
    assert final.degraded_collections == set()
    assert len(_contents(final)) == 11 - lost
    final.close()


def test_generation_zero_store_without_bases_opens_clean(sharded):
    sharded["c"].insert_many([{"_id": i} for i in range(11)])
    sharded.close()
    assert not list(sharded.directory.glob("c.shard-*[0-9].jsonl"))
    reopened = ShardedDocumentStore(sharded.directory)
    assert len(_contents(reopened)) == 11
    assert reopened.degraded_collections == set()
    assert reopened.load_warnings == []
    reopened.close()
    assert fsck(sharded.directory).clean


def test_auto_compaction_threshold(tmp_path):
    store = ShardedDocumentStore(
        tmp_path / "db", n_shards=2, auto_compact_ops=10
    )
    store["c"].insert_many([{} for _ in range(25)])
    assert store.pending_ops() < 10
    reopened = _reopen(store)
    assert len(reopened["c"]) == 25


def test_compact_single_collection(sharded):
    sharded["a"].insert_one({})
    sharded["b"].insert_one({})
    sharded.compact("a")
    assert sharded.pending_ops("a") == 0
    assert sharded.pending_ops("b") > 0


# ----------------------------------------------------------------------
# single-writer pid lockfile
# ----------------------------------------------------------------------
def test_second_opener_gets_a_clear_store_error(tmp_path):
    with ShardedDocumentStore(tmp_path / "db") as store:
        store["c"].insert_one({"x": 1})
        with pytest.raises(StoreError, match="already open"):
            ShardedDocumentStore(tmp_path / "db")
    # released on close: reopening afterwards is fine
    assert len(ShardedDocumentStore(tmp_path / "db")["c"]) == 1


def test_lockfile_written_and_removed(tmp_path):
    lockfile = tmp_path / "db" / "_shards.lock"
    store = ShardedDocumentStore(tmp_path / "db")
    assert lockfile.exists()
    assert int(lockfile.read_text()) == os.getpid()
    store.close()
    assert not lockfile.exists()


def test_stale_lock_from_dead_process_is_broken(tmp_path):
    directory = tmp_path / "db"
    directory.mkdir()
    # A pid that cannot be alive: spawn-and-reap one so the id is
    # known-dead rather than guessed.
    probe = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    dead_pid = int(probe.stdout)
    (directory / "_shards.lock").write_text(f"{dead_pid}\n")
    store = ShardedDocumentStore(directory)  # stale lock broken
    store["c"].insert_one({"x": 1})
    store.close()


def test_garbage_lockfile_counts_as_stale(tmp_path):
    directory = tmp_path / "db"
    directory.mkdir()
    (directory / "_shards.lock").write_text("not-a-pid\n")
    store = ShardedDocumentStore(directory)
    store.close()


def test_live_foreign_holder_is_reported_by_pid(tmp_path):
    directory = tmp_path / "db"
    directory.mkdir()
    holder = subprocess.Popen([sys.executable, "-c", "input()"],
                              stdin=subprocess.PIPE)
    try:
        (directory / "_shards.lock").write_text(f"{holder.pid}\n")
        with pytest.raises(StoreError, match=str(holder.pid)):
            ShardedDocumentStore(directory)
    finally:
        holder.communicate(input=b"\n", timeout=10)


def test_failed_open_releases_the_lockfile(tmp_path):
    store = ShardedDocumentStore(tmp_path / "db")
    store.close()
    manifest_path = tmp_path / "db" / "_shards.json"
    layout = json.loads(manifest_path.read_text())
    layout["version"] = 999
    manifest_path.write_text(json.dumps(layout))
    with pytest.raises(StoreError):
        ShardedDocumentStore(tmp_path / "db")
    # the failed opener must not leave its lockfile behind
    assert not (tmp_path / "db" / "_shards.lock").exists()
    layout["version"] = 1
    manifest_path.write_text(json.dumps(layout))
    ShardedDocumentStore(tmp_path / "db").close()


# ----------------------------------------------------------------------
# close() vs compaction
# ----------------------------------------------------------------------
def test_compaction_on_closed_store_raises(tmp_path):
    store = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    store["c"].insert_one({})
    store.close()
    with pytest.raises(StoreError):
        store.compact()


def test_close_then_reopen_never_races_compaction(tmp_path):
    # Cycle close/reopen with the writer compacting right before some
    # closes and leaving its ops in the logs before others: every
    # reopen must see exactly the documents written so far.
    directory = tmp_path / "db"
    expected = {}
    store = ShardedDocumentStore(directory, n_shards=2)
    for round_no in range(5):
        docs = [{"_id": f"{round_no}-{i}", "r": round_no}
                for i in range(20)]
        store["c"].insert_many(docs)
        for doc in docs:
            expected[doc["_id"]] = doc["r"]
        if round_no % 2 == 0:
            store.compact()
        store.close()
        store = ShardedDocumentStore(directory, n_shards=2)
        found = {
            doc["_id"]: doc["r"] for doc in store["c"].find()
        }
        assert found == expected
    store.close()


def test_interleaved_writers_with_auto_and_explicit_compaction(tmp_path):
    # Four logical writers insert round-robin into two collections while
    # auto-compaction (every 5 journaled ops) and an explicit compact()
    # every 11 inserts keep folding the logs: after a reopen every
    # document is there exactly once and fsck finds nothing to repair.
    directory = tmp_path / "db"
    names = ("events", "audit")
    store = ShardedDocumentStore(directory, n_shards=2, auto_compact_ops=5)
    expected = {name: [] for name in names}
    explicit = 0
    for i in range(30):
        for writer in range(4):
            name = names[(writer + i) % 2]
            store[name].insert_one({"w": writer, "i": i})
            expected[name].append((writer, i))
            if (4 * i + writer + 1) % 11 == 0:
                store.compact()
                explicit += 1
    stats = store.stats()
    # auto-compaction ran too, so each generation passed the explicit count
    assert all(stats[name]["generation"] > explicit for name in names)
    store.close()
    reopened = ShardedDocumentStore(directory)
    for name in names:
        docs = reopened[name].find().to_list()
        assert len({doc["_id"] for doc in docs}) == len(docs)
        assert sorted((doc["w"], doc["i"]) for doc in docs) == sorted(
            expected[name]
        )
    reopened.close()
    assert fsck(directory).clean


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_drop_collection_removes_files(sharded):
    sharded["c"].insert_many([{} for _ in range(5)])
    sharded.compact()
    assert list(sharded.directory.glob("c.shard-*"))
    sharded.drop_collection("c")
    assert not list(sharded.directory.glob("c.shard-*"))
    reopened = _reopen(sharded)
    assert "c" not in reopened.collection_names()


def test_closed_store_rejects_writes(sharded):
    sharded["c"].insert_one({})
    sharded.close()
    with pytest.raises(StoreError):
        sharded["c"].insert_one({})


def test_context_manager_closes(tmp_path):
    with ShardedDocumentStore(tmp_path / "db") as store:
        store["c"].insert_one({"x": 1})
    reopened = ShardedDocumentStore(tmp_path / "db")
    assert len(reopened["c"]) == 1


def test_unsupported_manifest_version_rejected(tmp_path):
    store = ShardedDocumentStore(tmp_path / "db")
    store.close()
    manifest_path = tmp_path / "db" / "_shards.json"
    layout = json.loads(manifest_path.read_text())
    layout["version"] = 999
    manifest_path.write_text(json.dumps(layout))
    with pytest.raises(StoreError):
        ShardedDocumentStore(tmp_path / "db")


# ----------------------------------------------------------------------
# KnowledgeBase on sharded storage
# ----------------------------------------------------------------------
def test_knowledge_base_open_sharded_round_trip(tmp_path):
    from repro.core.knowledge import KnowledgeItem

    kb = KnowledgeBase.open_sharded(tmp_path / "kdb", n_shards=4)
    item = KnowledgeItem(
        kind="cluster",
        end_goal="patient profiling",
        title="grp",
        score=0.9,
        payload={"k": 3},
    )
    kb.store_item(item)
    kb.compact()
    stats = kb.storage_stats()
    assert stats[DISCOVERED_KNOWLEDGE]["documents"] == 1
    assert stats[DISCOVERED_KNOWLEDGE]["pending_ops"] == 0
    kb.store.close()

    again = KnowledgeBase.open_sharded(tmp_path / "kdb", n_shards=4)
    assert [i.title for i in again.items()] == ["grp"]


def test_knowledge_base_storage_stats_in_memory():
    kb = KnowledgeBase()
    stats = kb.storage_stats()
    assert stats[DISCOVERED_KNOWLEDGE] == {"documents": 0}


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)

field_names = st.sampled_from(["a", "b", "c", "d"])

documents = st.dictionaries(
    field_names,
    st.one_of(scalars, st.lists(scalars, max_size=3)),
    max_size=4,
)


@given(st.lists(documents, max_size=15), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_property_shard_round_trip_identity(tmp_path_factory, docs, n):
    tmp = tmp_path_factory.mktemp("shards")
    store = ShardedDocumentStore(tmp / "db", n_shards=n)
    store["c"].insert_many(docs)
    expected = _contents(store)
    store.close()

    loaded = ShardedDocumentStore(tmp / "db")
    assert _contents(loaded) == expected
    loaded.compact()
    loaded.close()

    compacted = ShardedDocumentStore(tmp / "db")
    assert _contents(compacted) == expected
    assert compacted.load_warnings == []


@given(
    st.lists(documents, min_size=1, max_size=20),
    field_names,
    st.one_of(scalars, st.lists(scalars, max_size=3)),
    st.sampled_from(["hash", "sorted"]),
)
@settings(max_examples=60, deadline=None)
def test_property_planner_matches_scan(docs, path, operand, kind):
    """The same equality query answered with and without an index is
    identical, in order, sorted or not."""
    query = {path: operand}
    scan_collection = DocumentStore()["c"]
    scan_collection.insert_many(docs)
    scanned = scan_collection.find(query).to_list()
    assert scan_collection.last_plan.kind == "scan"

    indexed_collection = DocumentStore()["c"]
    indexed_collection.create_index(path, kind=kind)
    indexed_collection.insert_many(docs)
    planned = indexed_collection.find(query).to_list()
    assert indexed_collection.last_plan.kind == "point"

    assert planned == scanned
    for direction in (1, -1):
        assert (
            indexed_collection.find(query).sort(path, direction).to_list()
            == scan_collection.find(query).sort(path, direction).to_list()
        )


@given(st.lists(documents, min_size=1, max_size=20), field_names)
@settings(max_examples=40, deadline=None)
def test_property_indexed_sort_matches_scan_sort(docs, path):
    scan_collection = DocumentStore()["c"]
    scan_collection.insert_many(docs)
    expected = scan_collection.find().sort(path, 1).to_list()

    indexed_collection = DocumentStore()["c"]
    indexed_collection.create_index(path, kind="sorted")
    indexed_collection.insert_many(docs)
    assert indexed_collection.find().sort(path, 1).to_list() == expected
    assert (
        indexed_collection.find().sort(path, -1).to_list()
        == scan_collection.find().sort(path, -1).to_list()
    )
