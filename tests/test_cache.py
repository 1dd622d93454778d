"""Tests for the content-addressed analysis cache."""

import repro.core.cache as cache_module
import repro.core.engine as engine_module
from repro.core import ADAHealth, EngineConfig
from repro.core.cache import (
    CACHE_COLLECTION,
    AnalysisCache,
    fingerprint_log,
    fingerprint_params,
    payload_crc,
)
from repro.data.records import ExamLog
from repro.data.synthetic import small_dataset
from repro.kdb.documentstore import DocumentStore
from repro.kdb.kdb import DESCRIPTORS, KnowledgeBase
from repro.obs.metrics import Metrics


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_params_key_order_independent():
    assert fingerprint_params({"a": 1, "b": [2, 3]}) == fingerprint_params(
        {"b": [2, 3], "a": 1}
    )
    assert fingerprint_params({"a": 1}) != fingerprint_params({"a": 2})


def test_fingerprint_log_changes_when_records_change():
    log = small_dataset(n_patients=20, seed=1)
    again = small_dataset(n_patients=20, seed=1)
    assert fingerprint_log(log) == fingerprint_log(again)
    other = small_dataset(n_patients=21, seed=1)
    assert fingerprint_log(log) != fingerprint_log(other)


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
def test_cache_miss_put_hit_roundtrip():
    cache = AnalysisCache()
    assert cache.get("ds", "algo", {"k": 3}) is None
    cache.put("ds", "algo", {"k": 3}, {"labels": [0, 1, 0]})
    assert cache.get("ds", "algo", {"k": 3}) == {"labels": [0, 1, 0]}
    assert cache.stats() == {
        "hits": 1,
        "misses": 1,
        "stores": 1,
        "corrupt": 0,
        "entries": 1,
    }


def test_cache_distinguishes_all_key_parts():
    cache = AnalysisCache()
    cache.put("ds1", "algo", {"k": 3}, "one")
    assert cache.get("ds2", "algo", {"k": 3}) is None
    assert cache.get("ds1", "other", {"k": 3}) is None
    assert cache.get("ds1", "algo", {"k": 4}) is None
    assert cache.get("ds1", "algo", {"k": 3}) == "one"


def test_cache_put_is_idempotent():
    cache = AnalysisCache()
    key = cache.put("ds", "algo", {}, "first")
    assert cache.put("ds", "algo", {}, "second") == key
    assert cache.get("ds", "algo", {}) == "first"
    assert len(cache) == 1


def test_cache_payloads_are_isolated_copies():
    cache = AnalysisCache()
    payload = {"values": [1, 2]}
    cache.put("ds", "algo", {}, payload)
    payload["values"].append(3)  # caller mutation must not leak in
    assert cache.get("ds", "algo", {}) == {"values": [1, 2]}
    cache.get("ds", "algo", {})["values"].append(4)  # nor out
    assert cache.get("ds", "algo", {}) == {"values": [1, 2]}


def test_cache_detects_tampered_payload_via_crc():
    cache = AnalysisCache()
    key = cache.put("ds", "algo", {"k": 3}, {"labels": [0, 1, 0]})
    # bit-rot in the backing store: payload changes, checksum doesn't
    cache.collection.update_one(
        {"key": key}, {"$set": {"payload": {"labels": [9, 9, 9]}}}
    )
    assert cache.get("ds", "algo", {"k": 3}) is None
    assert cache.stats()["corrupt"] == 1
    assert len(cache) == 0  # the damaged entry was evicted
    # the recomputed payload stores cleanly over the damage
    cache.put("ds", "algo", {"k": 3}, {"labels": [0, 1, 0]})
    assert cache.get("ds", "algo", {"k": 3}) == {"labels": [0, 1, 0]}


def test_cache_entry_without_crc_is_a_corrupt_miss():
    cache = AnalysisCache()
    # put() always stores a checksum, so an entry without one is damage
    cache.collection.insert_one(
        {
            "key": AnalysisCache.key("ds", "algo", {}),
            "dataset": "ds",
            "algorithm": "algo",
            "params": "{}",
            "payload": "unchecked",
        }
    )
    assert cache.get("ds", "algo", {}) is None
    assert cache.stats()["corrupt"] == 1
    assert len(cache) == 0  # the damaged entry was evicted
    cache.put("ds", "algo", {}, "recomputed")
    assert cache.get("ds", "algo", {}) == "recomputed"


def test_cache_entries_with_a_legacy_cert_field_still_hit():
    cache = AnalysisCache()
    # earlier releases stamped some entries with a "cert" fingerprint
    cache.collection.insert_one(
        {
            "key": AnalysisCache.key("ds", "algo", {}),
            "dataset": "ds",
            "algorithm": "algo",
            "params": "{}",
            "payload": "stamped",
            "crc": cache_module.payload_crc("stamped"),
            "cert": "fp-a",
        }
    )
    assert cache.get("ds", "algo", {}) == "stamped"
    assert cache.stats()["corrupt"] == 0


def test_cache_invalidate_dataset_scoped():
    cache = AnalysisCache()
    cache.put("ds1", "algo", {"k": 1}, "a")
    cache.put("ds1", "algo", {"k": 2}, "b")
    cache.put("ds2", "algo", {"k": 1}, "c")
    assert cache.invalidate_dataset("ds1") == 2
    assert cache.get("ds1", "algo", {"k": 1}) is None
    assert cache.get("ds2", "algo", {"k": 1}) == "c"


def test_cache_dataset_mutation_invalidates_implicitly():
    cache = AnalysisCache()
    log = small_dataset(n_patients=20, seed=1)
    cache.put(fingerprint_log(log), "count", {}, log.n_records)
    # the same log less its first record
    mutated = ExamLog.from_rows(
        log.to_rows()[1:],
        taxonomy=log.taxonomy,
        patients=log.patients.values(),
    )
    assert mutated.n_records == log.n_records - 1
    assert cache.get(fingerprint_log(mutated), "count", {}) is None
    assert cache.get(fingerprint_log(log), "count", {}) == log.n_records


def test_cache_clear():
    cache = AnalysisCache()
    cache.put("ds", "algo", {}, 1)
    cache.clear()
    assert len(cache) == 0
    assert cache.get("ds", "algo", {}) is None


def test_cache_lives_inside_a_document_store():
    store = DocumentStore()
    cache = AnalysisCache(store.collection(CACHE_COLLECTION))
    cache.put("ds", "algo", {}, {"x": 1})
    documents = store[CACHE_COLLECTION].find({"dataset": "ds"}).to_list()
    assert len(documents) == 1
    assert documents[0]["payload"] == {"x": 1}


def test_cache_persists_with_the_knowledge_base(tmp_path):
    from repro.kdb.kdb import KnowledgeBase

    kdb = KnowledgeBase.open_sharded(tmp_path / "kdb")
    kdb.analysis_cache().put("ds", "algo", {"k": 2}, [1, 0, 1])
    kdb.store.close()
    reloaded = KnowledgeBase.open_sharded(tmp_path / "kdb")
    try:
        assert reloaded.analysis_cache().get("ds", "algo", {"k": 2}) == [
            1,
            0,
            1,
        ]
    finally:
        reloaded.store.close()


# ----------------------------------------------------------------------
# the code fingerprint in every key
# ----------------------------------------------------------------------
def _cached_engine(cache):
    return ADAHealth(
        config=EngineConfig(k_values=(2, 3), n_folds=2, use_cache=True),
        seed=7,
        cache=cache,
    )


def _ranking(result):
    return [
        (item.kind, item.title, round(item.score, 12))
        for item in result.items
    ]


def _goals_cached(engine):
    (manifest,) = engine.kdb.run_history()
    return {goal["name"]: goal["cached"] for goal in manifest["goals"]}


def test_engine_cache_key_covers_the_code(tiny_log, monkeypatch):
    cache = AnalysisCache()
    cold_engine = _cached_engine(cache)
    cold = cold_engine.analyze(tiny_log, name="cold", user="t")
    assert cold.runs and not any(_goals_cached(cold_engine).values())
    entries = len(cache)
    assert entries == cache.stores > 0

    # same code: the warm re-run restores every goal from the cache
    warm_engine = _cached_engine(cache)
    warm = warm_engine.analyze(tiny_log, name="warm", user="t")
    assert all(_goals_cached(warm_engine).values())
    assert _ranking(warm) == _ranking(cold)

    # an edit anywhere in the engine changes the code fingerprint:
    # every goal misses and is recomputed to the same ranking, and no
    # entry written under the old code is ever served
    monkeypatch.setattr(
        cache_module, "code_fingerprint", lambda: "edited-code"
    )
    hits_before = cache.hits
    edited_engine = _cached_engine(cache)
    edited = edited_engine.analyze(tiny_log, name="edited", user="t")
    assert not any(_goals_cached(edited_engine).values())
    assert cache.hits == hits_before
    assert cache.corrupt == 0
    assert _ranking(edited) == _ranking(cold)
    # the old entries stay until invalidated; the new ones sit beside
    assert len(cache) == 2 * entries


# ----------------------------------------------------------------------
# the dataset profile served from the cache
# ----------------------------------------------------------------------
def _sharded_analyze(directory, log, name, metrics=None):
    kdb = KnowledgeBase.open_sharded(directory)
    try:
        engine = ADAHealth(
            kdb=kdb,
            config=EngineConfig(
                k_values=(2, 3), n_folds=2, use_cache=True, metrics=metrics
            ),
            seed=7,
        )
        result = engine.analyze(log, name=name, user="t")
        descriptors = len(kdb.store[DESCRIPTORS])
        return result, engine.cache.stats(), descriptors
    finally:
        kdb.store.close()


def _counting_characterize(monkeypatch):
    calls = []
    original = engine_module.characterize_log

    def counted(log):
        calls.append(log)
        return original(log)

    monkeypatch.setattr(engine_module, "characterize_log", counted)
    return calls


def _refuse_characterize(monkeypatch):
    def refuse(log):
        raise AssertionError("characterize_log called on a warm analyze")

    monkeypatch.setattr(engine_module, "characterize_log", refuse)


def test_warm_analyze_restores_the_profile_from_a_reopened_kdb(
    tiny_log, tmp_path, monkeypatch
):
    calls = _counting_characterize(monkeypatch)
    cold, cold_stats, __ = _sharded_analyze(tmp_path / "kdb", tiny_log, "c")
    assert len(calls) == 1
    assert cold_stats["stores"] > 0
    _refuse_characterize(monkeypatch)
    warm, warm_stats, descriptors = _sharded_analyze(
        tmp_path / "kdb", tiny_log, "w"
    )
    assert _ranking(warm) == _ranking(cold)
    assert warm.profile == cold.profile
    assert warm_stats["misses"] == warm_stats["stores"] == 0
    # store_profile still writes one descriptor per run
    assert descriptors == 2


def test_corrupt_profile_entry_is_characterised_again(
    tiny_log, tmp_path, monkeypatch
):
    cold, __, __ = _sharded_analyze(tmp_path / "kdb", tiny_log, "c")
    # Damage the stored profile so it still passes its checksum but no
    # longer decodes: a field goes missing.
    kdb = KnowledgeBase.open_sharded(tmp_path / "kdb")
    try:
        cache = kdb.analysis_cache()
        (entry,) = cache.collection.find(
            {"algorithm": "dataset-profile"}
        ).to_list()
        del entry["payload"]["gini"]
        entry["crc"] = payload_crc(entry["payload"])
        del entry["_id"]
        cache.collection.delete_many({"key": entry["key"]})
        cache.collection.insert_one(entry)
    finally:
        kdb.store.close()

    calls = _counting_characterize(monkeypatch)
    metrics = Metrics()
    again, stats, __ = _sharded_analyze(
        tmp_path / "kdb", tiny_log, "again", metrics=metrics
    )
    assert len(calls) == 1
    assert stats["corrupt"] == 1
    assert stats["stores"] == 1
    assert metrics.snapshot()["counters"]["cache.corrupt"] == 1
    assert again.profile == cold.profile
    assert _ranking(again) == _ranking(cold)

    # the rewritten entry serves the next revisit
    _refuse_characterize(monkeypatch)
    warm, warm_stats, __ = _sharded_analyze(tmp_path / "kdb", tiny_log, "w")
    assert warm_stats["corrupt"] == 0
    assert _ranking(warm) == _ranking(cold)


# ----------------------------------------------------------------------
# one memo level: what a cached engine writes and reads
# ----------------------------------------------------------------------
def _count_cache_calls(monkeypatch):
    calls = {"get": 0, "put": 0}
    for name in calls:
        original = getattr(AnalysisCache, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(AnalysisCache, name, counted)
    return calls


def test_a_cached_engine_stores_the_profile_and_whole_goal_runs_only(
    tiny_log, tmp_path, monkeypatch
):
    cold, __, __ = _sharded_analyze(tmp_path / "kdb", tiny_log, "cold")
    completed = [run for run in cold.runs if run.status == "completed"]
    assert completed
    kdb = KnowledgeBase.open_sharded(tmp_path / "kdb")
    try:
        entries = kdb.analysis_cache().collection.find({}).to_list()
    finally:
        kdb.store.close()
    assert {entry["dataset"] for entry in entries} == {
        fingerprint_log(tiny_log)
    }
    assert sorted(entry["algorithm"] for entry in entries) == sorted(
        ["dataset-profile"] + ["engine-goal-run"] * len(completed)
    )

    # the revisit reads the profile and every goal run, and writes none
    calls = _count_cache_calls(monkeypatch)
    warm, stats, __ = _sharded_analyze(tmp_path / "kdb", tiny_log, "warm")
    assert calls == {"get": 1 + len(warm.runs), "put": 0}
    assert stats["hits"] == 1 + len(warm.runs)
    assert stats["misses"] == stats["stores"] == 0
    assert _ranking(warm) == _ranking(cold)


def test_engines_without_a_cache_characterise_every_analyze(
    tiny_log, monkeypatch
):
    calls = _counting_characterize(monkeypatch)
    engine = ADAHealth(
        config=EngineConfig(k_values=(2, 3), n_folds=2), seed=7
    )
    engine.analyze(tiny_log, name="first")
    engine.analyze(tiny_log, name="second")
    assert engine.cache is None
    assert len(calls) == 2
