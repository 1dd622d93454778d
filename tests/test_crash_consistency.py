"""Crash-point sweep and recovery tests for the sharded K-DB store.

The core harness records an N-op workload against a FaultyStorage in a
clean pass (counting write events), then replays it once per write
event with a hard crash injected at that event. After every crash the
directory is reopened with real storage and the recovered contents
must equal the state after some *prefix* of the op sequence — the
prefix-consistency invariant — and ``kdb fsck`` must leave the
directory clean. A Hypothesis property drives the same invariant over
arbitrary put/delete sequences and crash offsets.

A second sweep crashes ``drop_collection`` at each of its write
events: the reopened store holds the collection whole or not at all,
and a collection re-created under the same name starts empty.

Also here: ENOSPC write-protection, stale-lockfile takeover after a
crash between lockfile create and pid write, v1 (pre-checksum) store
upgrade, quarantine semantics under fault injection, and the
byte-identity of completed faulty runs.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import StoreError
from repro.kdb.fsck import fsck
from repro.kdb.shards import ShardedDocumentStore, shard_of
from repro.kdb.storage import FaultyStorage, SimulatedCrash
from repro.obs import Metrics

pytestmark = pytest.mark.crash


# ----------------------------------------------------------------------
# workload harness
# ----------------------------------------------------------------------
def _put(collection, doc_id, value):
    """Upsert: exactly one journal append either way."""
    hit = collection.update_one(
        {"_id": doc_id}, {"$set": {"v": value}}
    )
    if hit == 0:
        collection.insert_one({"_id": doc_id, "v": value})


def _apply(store, ops, upto=None):
    """Apply ``ops[:upto]``; each op is at most one journal append."""
    collection = store["c"]
    for op in ops[:upto]:
        if op[0] == "put":
            _put(collection, op[1], op[2])
        else:  # del
            collection.delete_one({"_id": op[1]})


def _state_after(ops, upto):
    state = {}
    for op in ops[:upto]:
        if op[0] == "put":
            state[op[1]] = {"_id": op[1], "v": op[2]}
        else:
            state.pop(op[1], None)
    return state


def _contents(store):
    return {doc["_id"]: doc for doc in store["c"].find()}


#: A workload mixing puts, overwrites, deletes and a mid-stream
#: compaction — every op is a single log append, so recovery must land
#: on an exact op prefix.
_OPS = (
    [("put", i, 0) for i in range(6)]
    + [("del", 1), ("put", 2, 1), ("put", 6, 0)]
    + [("compact",)]
    + [("put", 7, 0), ("del", 0), ("put", 2, 2)]
)


def _run_workload(directory, storage, n_shards=2):
    store = ShardedDocumentStore(
        directory, n_shards=n_shards, storage=storage
    )
    try:
        collection = store["c"]
        for op in _OPS:
            if op[0] == "put":
                _put(collection, op[1], op[2])
            elif op[0] == "del":
                collection.delete_one({"_id": op[1]})
            else:
                store.compact()
    finally:
        if not storage.crashed:
            store.close()
        else:
            store.simulate_crash()
    return store


def _prefix_states():
    """Every reachable logical state of the workload, by op prefix."""
    logical = [op for op in _OPS if op[0] != "compact"]
    return [
        _state_after(logical, upto)
        for upto in range(len(logical) + 1)
    ]


def test_sweep_every_crash_point_recovers_a_prefix(tmp_path):
    clean = FaultyStorage(seed=0)
    _run_workload(tmp_path / "count", clean)
    total_events = clean.events
    assert total_events > 20
    prefixes = _prefix_states()
    for crash_at in range(1, total_events + 1):
        directory = tmp_path / f"crash-{crash_at:03d}"
        storage = FaultyStorage(seed=crash_at, crash_at=crash_at)
        try:
            _run_workload(directory, storage)
        except SimulatedCrash:
            pass
        else:
            pytest.fail(f"event {crash_at} never fired")
        metrics = Metrics()
        recovered = ShardedDocumentStore(
            directory, n_shards=2, metrics=metrics
        )
        state = _contents(recovered)
        assert state in prefixes, (
            f"crash at event {crash_at}: recovered state matches no"
            f" op prefix: {sorted(state)}"
        )
        # nothing a crash leaves behind may look like damage
        assert recovered.degraded_collections == set(), (
            f"crash at event {crash_at} flagged degraded:"
            f" {recovered.load_warnings}"
        )
        assert recovered.recovery_stats["quarantined"] == 0
        recovered.close()
        report = fsck(directory, repair=True)
        assert report.ok, (
            f"crash at event {crash_at}: fsck still unhappy:"
            f" {[issue.as_dict() for issue in report.issues]}"
        )
        final = ShardedDocumentStore(directory, n_shards=2)
        assert _contents(final) == state  # repair changed nothing
        final.close()


def _dropped_store(directory):
    """An 11-document, 4-shard collection ``c`` (8 documents in
    compacted bases, 3 in the logs) beside a 2-document ``other``."""
    store = ShardedDocumentStore(directory, n_shards=4)
    store["c"].insert_many([{"_id": i, "v": i} for i in range(8)])
    store["other"].insert_many([{"_id": i} for i in range(2)])
    store.compact()
    store["c"].insert_many([{"_id": i, "v": i} for i in range(8, 11)])
    store.close()
    return {i: {"_id": i, "v": i} for i in range(11)}


def _drop(directory, storage):
    store = ShardedDocumentStore(directory, n_shards=4, storage=storage)
    try:
        store.drop_collection("c")
    finally:
        if not storage.crashed:
            store.close()
        else:
            store.simulate_crash()


def test_sweep_every_crash_point_of_a_drop(tmp_path):
    import shutil

    full = _dropped_store(tmp_path / "seed")
    clean = FaultyStorage(seed=0)
    shutil.copytree(tmp_path / "seed", tmp_path / "count")
    _drop(tmp_path / "count", clean)
    total_events = clean.events
    assert total_events > 10
    outcomes = set()
    for crash_at in range(1, total_events + 1):
        directory = tmp_path / f"crash-{crash_at:03d}"
        shutil.copytree(tmp_path / "seed", directory)
        storage = FaultyStorage(seed=crash_at, crash_at=crash_at)
        with pytest.raises(SimulatedCrash):
            _drop(directory, storage)
        recovered = ShardedDocumentStore(directory, n_shards=4)
        where = f"crash at event {crash_at}"
        # a drop is one op: the collection is whole or gone
        if "c" in recovered.collection_names():
            assert _contents(recovered) == full, where
            outcomes.add("whole")
            recovered.drop_collection("c")
        else:
            outcomes.add("gone")
        assert recovered.degraded_collections == set(), (
            f"{where}: {recovered.load_warnings}"
        )
        assert len(list(recovered["other"].find())) == 2, where
        # a re-created collection never replays the dropped one's logs
        assert _contents(recovered) == {}, where
        recovered["c"].insert_one({"_id": "new"})
        recovered.close()
        reopened = ShardedDocumentStore(directory, n_shards=4)
        assert _contents(reopened) == {"new": {"_id": "new"}}, where
        assert reopened.degraded_collections == set(), where
        reopened.close()
        report = fsck(directory, repair=True)
        assert report.ok, (
            f"{where}: fsck still unhappy:"
            f" {[issue.as_dict() for issue in report.issues]}"
        )
    assert outcomes == {"whole", "gone"}


def _unlist(directory, name):
    """Remove ``name`` from the manifest: the state a crash after a
    drop's manifest rewrite leaves, and also what a damaged manifest
    that lost an entry looks like."""
    layout = json.loads((directory / "_shards.json").read_text())
    del layout["collections"][name]
    (directory / "_shards.json").write_text(json.dumps(layout))


def test_open_keeps_the_files_of_an_unlisted_collection(tmp_path):
    _dropped_store(tmp_path)
    _unlist(tmp_path, "c")
    files = sorted(path.name for path in tmp_path.glob("c.shard-*"))
    assert files
    store = ShardedDocumentStore(tmp_path, n_shards=4)
    assert "c" not in store.collection_names()
    store.close()
    assert sorted(path.name for path in tmp_path.glob("c.shard-*")) == files
    # re-creating the name removes its leftovers before listing it
    store = ShardedDocumentStore(tmp_path, n_shards=4)
    store["c"].insert_one({"_id": "new"})
    store.close()
    reopened = ShardedDocumentStore(tmp_path, n_shards=4)
    assert _contents(reopened) == {"new": {"_id": "new"}}
    assert reopened.degraded_collections == set()
    reopened.close()
    assert fsck(tmp_path).clean


def test_fsck_repair_removes_an_interrupted_drops_files(tmp_path):
    _dropped_store(tmp_path)
    _unlist(tmp_path, "c")
    report = fsck(tmp_path)
    orphans = [i for i in report.issues if i.kind == "orphan_file"]
    assert orphans and not report.ok
    assert fsck(tmp_path, repair=True).ok
    assert not list(tmp_path.glob("c.shard-*"))
    assert fsck(tmp_path).clean


def test_fsck_repairs_nothing_while_a_live_process_holds_the_store(
    tmp_path,
):
    _dropped_store(tmp_path)
    _unlist(tmp_path, "c")
    holder = subprocess.Popen(
        [sys.executable, "-c", "input()"], stdin=subprocess.PIPE
    )
    try:
        (tmp_path / "_shards.lock").write_text(f"{holder.pid}\n")
        report = fsck(tmp_path, repair=True)
    finally:
        holder.communicate(input=b"\n", timeout=10)
    kinds = {issue.kind for issue in report.issues}
    assert {"live_lockfile", "orphan_file"} <= kinds
    assert not report.ok and not report.repaired
    assert list(tmp_path.glob("c.shard-*"))


def test_completed_faulty_run_is_byte_identical_to_clean(tmp_path):
    _run_workload(tmp_path / "clean", FaultyStorage(seed=1))
    _run_workload(tmp_path / "faulty", FaultyStorage(seed=2))
    clean_files = sorted(
        p.name for p in (tmp_path / "clean").iterdir()
    )
    faulty_files = sorted(
        p.name for p in (tmp_path / "faulty").iterdir()
    )
    assert clean_files == faulty_files
    for name in clean_files:
        assert (tmp_path / "clean" / name).read_bytes() == (
            tmp_path / "faulty" / name
        ).read_bytes(), name


# ----------------------------------------------------------------------
# Hypothesis: arbitrary op sequence x arbitrary crash offset
# ----------------------------------------------------------------------
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 7),
            st.integers(0, 99),
        ),
        st.tuples(st.just("del"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=12,
)


@given(ops=ops_strategy, crash_seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_prefix_consistency(tmp_path_factory, ops, crash_seed):
    tmp = tmp_path_factory.mktemp("sweep")
    counter = FaultyStorage(seed=0)
    store = ShardedDocumentStore(
        tmp / "count", n_shards=2, storage=counter
    )
    _apply(store, ops)
    store.close()
    crash_at = 1 + crash_seed % counter.events

    directory = tmp / "crash"
    storage = FaultyStorage(seed=crash_seed, crash_at=crash_at)
    store = None
    try:
        store = ShardedDocumentStore(
            directory, n_shards=2, storage=storage
        )
        _apply(store, ops)
        store.close()
    except SimulatedCrash:
        # a constructor crash cleans up after itself; a later crash
        # needs the in-process ownership dropped before reopening
        if store is not None:
            store.simulate_crash()
    recovered = ShardedDocumentStore(directory, n_shards=2)
    state = _contents(recovered)
    prefixes = [_state_after(ops, i) for i in range(len(ops) + 1)]
    assert state in prefixes
    assert recovered.degraded_collections == set()
    recovered.close()
    assert fsck(directory, repair=True).ok


# ----------------------------------------------------------------------
# lockfile takeover under crashed create
# ----------------------------------------------------------------------
def test_stale_lockfile_takeover_after_torn_create(tmp_path):
    directory = tmp_path / "db"
    # event 1 of a fresh open is the exclusive lockfile create: crash
    # there, leaving a lockfile whose pid content is torn
    storage = FaultyStorage(seed=4, crash_at=1)
    with pytest.raises(SimulatedCrash):
        ShardedDocumentStore(directory, storage=storage)
    assert (directory / "_shards.lock").exists()
    report = fsck(directory)
    assert any(
        issue.kind in ("stale_lockfile", "missing_manifest")
        for issue in report.issues
    )
    # the next opener must prove the lock stale and break it
    store = ShardedDocumentStore(directory, n_shards=2)
    store["c"].insert_one({"_id": 1})
    store.close()
    reopened = ShardedDocumentStore(directory)
    assert len(reopened["c"]) == 1
    reopened.close()


def test_crashed_store_keeps_lockfile_until_takeover(tmp_path):
    directory = tmp_path / "db"
    storage = FaultyStorage(seed=0, crash_at=10)
    try:
        _run_workload(directory, storage)
    except SimulatedCrash:
        pass
    # the dead "process" left its lockfile; same-pid takeover works
    assert (directory / "_shards.lock").exists()
    store = ShardedDocumentStore(directory, n_shards=2)
    store.close()


# ----------------------------------------------------------------------
# ENOSPC: write-protection until compaction reconciles
# ----------------------------------------------------------------------
def test_enospc_write_protects_until_compact(tmp_path):
    # open = lockfile + 2 manifest writes (events 1-3); the first
    # insert appends a header frame then its record (events 4-5), so
    # the failure lands on the second insert's log append
    storage = FaultyStorage(seed=0, enospc_at=6)
    store = ShardedDocumentStore(
        tmp_path / "db", n_shards=2, storage=storage
    )
    collection = store["c"]
    collection.insert_one({"_id": 1})
    with pytest.raises(StoreError, match="journal append"):
        collection.insert_one({"_id": 2})
    # memory is ahead of disk; further writes are refused
    assert len(collection) == 2
    with pytest.raises(StoreError, match="write-protected"):
        collection.insert_one({"_id": 3})
    # compaction rewrites disk from memory and lifts the protection
    store.compact()
    collection.insert_one({"_id": 3})
    store.close()
    recovered = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    assert sorted(_contents(recovered)) == [1, 2, 3]
    recovered.close()


# ----------------------------------------------------------------------
# lose_unsynced: flushed-but-unsynced appends vanish
# ----------------------------------------------------------------------
def test_lost_page_cache_still_recovers_a_prefix(tmp_path):
    directory = tmp_path / "db"
    storage = FaultyStorage(seed=3, crash_at=8, lose_unsynced=True)
    try:
        _run_workload(directory, storage)
    except SimulatedCrash:
        pass
    recovered = ShardedDocumentStore(directory, n_shards=2)
    assert _contents(recovered) in _prefix_states()
    assert recovered.degraded_collections == set()
    recovered.close()


# ----------------------------------------------------------------------
# v1 upgrade path
# ----------------------------------------------------------------------
def _write_v1_store(directory):
    """A pre-PR-10 store: plain JSONL, version-1 manifest."""
    directory.mkdir(parents=True)
    docs = [{"_id": i, "v": i} for i in range(6)]
    n_shards = 2
    for shard in range(n_shards):
        log = directory / f"c.shard-{shard:04d}.log.jsonl"
        records = [
            {"op": "put", "doc": doc}
            for doc in docs
            if shard_of(doc["_id"], n_shards) == shard
        ]
        log.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n"
                    for r in records)
        )
    (directory / "_shards.json").write_text(
        json.dumps(
            {
                "version": 1,
                "n_shards": n_shards,
                "collections": {"c": {"indexes": []}},
            }
        )
    )
    return {doc["_id"]: doc for doc in docs}


def test_v1_store_opens_and_upgrades_on_compact(tmp_path):
    expected = _write_v1_store(tmp_path / "db")
    store = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    assert _contents(store) == expected
    assert store.load_warnings == []
    assert store.degraded_collections == set()
    # appends to a v1 log open a framed run behind a header
    store["c"].insert_one({"_id": 99, "v": 99})
    store.close()
    reopened = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    assert set(_contents(reopened)) == set(expected) | {99}
    # compaction rewrites everything in framed v2 + manifest v2
    reopened.compact()
    reopened.close()
    manifest = json.loads((tmp_path / "db" / "_shards.json").read_text())
    assert manifest["version"] == 2
    assert manifest["collections"]["c"]["generation"] == 1
    for log in (tmp_path / "db").glob("c.shard-*.jsonl"):
        for line in log.read_text().splitlines():
            assert line.startswith("v2|")
    final = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    assert set(_contents(final)) == set(expected) | {99}
    assert final.load_warnings == []
    final.close()


# ----------------------------------------------------------------------
# recovery metrics
# ----------------------------------------------------------------------
def test_recovery_counters_are_metered(tmp_path):
    store = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    store["c"].insert_many([{"_id": i} for i in range(8)])
    store.close()
    logs = sorted(
        path
        for path in (tmp_path / "db").glob("c.shard-*.log.jsonl")
        if path.stat().st_size > 0
    )
    # tear the tail of one log, corrupt the interior of another
    logs[0].write_bytes(logs[0].read_bytes()[:-4])
    lines = logs[1].read_bytes().splitlines(True)
    lines[1] = b"XX" + lines[1][2:]
    logs[1].write_bytes(b"".join(lines))
    metrics = Metrics()
    recovered = ShardedDocumentStore(
        tmp_path / "db", n_shards=2, metrics=metrics
    )
    snapshot = metrics.snapshot()["counters"]
    assert snapshot["kdb.recovery.torn_tail"] == 1
    assert snapshot["kdb.recovery.quarantined"] >= 1
    assert snapshot["kdb.recovery.seq_gap"] >= 1
    assert recovered.recovery_stats["torn_tail"] == 1
    recovered.close()


def test_fsck_reports_and_repairs_interior_damage(tmp_path):
    store = ShardedDocumentStore(tmp_path / "db", n_shards=2)
    store["c"].insert_many([{"_id": i} for i in range(8)])
    store.close()
    victim = next(
        path
        for path in sorted(
            (tmp_path / "db").glob("c.shard-*.log.jsonl")
        )
        if len(path.read_bytes().splitlines()) >= 3
    )
    lines = victim.read_bytes().splitlines(True)
    lines[1] = b"XX" + lines[1][2:]
    victim.write_bytes(b"".join(lines))
    report = fsck(tmp_path / "db")
    assert not report.clean
    assert any(i.kind == "corrupt_line" for i in report.issues)
    assert not report.ok
    repaired = fsck(tmp_path / "db", repair=True)
    assert repaired.ok
    # quarantine sidecar preserved the damaged record
    sidecar = next(
        (tmp_path / "db").glob("c.shard-*.quarantine.jsonl")
    )
    assert sidecar.read_text().strip()
    assert fsck(tmp_path / "db").clean
